package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	diversification "repro"
	"repro/internal/load"
)

// demoHandler serves the built-in gift-shop catalog under the "gifts"
// statement with the bindings cmd/divserve -demo registers.
func demoHandler(t testing.TB) http.Handler {
	t.Helper()
	e := diversification.NewEngine()
	load.Demo(e)
	svc := diversification.NewService(e, diversification.ServiceConfig{})
	err := svc.Register("gifts", "Q(item, type, price) :- catalog(item, type, price, s), price <= 40",
		diversification.WithK(3),
		diversification.WithObjective(diversification.MaxSum),
		diversification.WithLambda(0.7),
		diversification.WithRelevance(diversification.AttrRelevance("price")),
		diversification.WithDistance(diversification.AttrDistance("type")))
	if err != nil {
		t.Fatal(err)
	}
	return NewHandler(svc)
}

// decodesAs reports whether body decodes into dst the way the handler
// reads it: empty, or one JSON value with numbers kept exact and no
// unknown fields.
func decodesAs(body string, dst interface{}) bool {
	if body == "" {
		return true
	}
	dec := json.NewDecoder(strings.NewReader(body))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	return dec.Decode(dst) == nil
}

// FuzzWireRequest posts arbitrary bodies to the query and coreset routes
// of a demo engine. Whatever the body, the handler must not fail with a
// 500; every 4xx must carry an ErrorBody; and a 400 for a body that
// decoded as a request must name the field at fault. The seed corpus in
// testdata/fuzz/FuzzWireRequest covers a valid request, wrong types,
// negative and huge k, λ outside [0, 1], unknown objectives and
// algorithms, bad candidate rows and a string holding the tuple key
// separator.
func FuzzWireRequest(f *testing.F) {
	h := demoHandler(f)
	f.Fuzz(func(t *testing.T, coreset bool, body string) {
		path := "/v1/query/gifts"
		var dst interface{} = &QueryRequest{}
		if coreset {
			path = "/v1/coreset/gifts"
			dst = &CoresetRequest{}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if rec.Code < 400 || rec.Code >= 500 {
			return
		}
		var eb ErrorBody
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&eb); err != nil || eb.Error == "" {
			t.Fatalf("POST %s %q: status %d body %q is not an ErrorBody (%v)", path, body, rec.Code, rec.Body, err)
		}
		if rec.Code == http.StatusBadRequest && eb.Field == "" && decodesAs(body, dst) {
			t.Fatalf("POST %s %q: 400 names no field: %s", path, body, eb.Error)
		}
	})
}
