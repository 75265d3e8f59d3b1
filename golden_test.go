package diversification

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// updateGolden regenerates the checked-in golden outputs:
//
//	go test -run TestExamplesGolden -update .
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*.txt from the examples' current output")

// exampleNames lists every program under examples/; the test fails if a new
// example is added without a golden file (run with -update to create it).
func exampleNames(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no examples found")
	}
	return names
}

// TestExamplesGolden runs every examples/ program and diffs its output
// against the checked-in golden transcript. The examples double as
// end-to-end regression tests this way: any change to the solvers, the
// prepared-query layer or the printed formats that alters what a user sees
// shows up as a golden diff — intended changes are recorded with -update.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run per example")
	}
	for _, name := range exampleNames(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+name)
			cmd.Env = os.Environ()
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("go run ./examples/%s: %v\nstderr:\n%s", name, err, stderr.String())
			}
			golden := filepath.Join("testdata", "golden", name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file %s (run `go test -run TestExamplesGolden -update .`): %v", golden, err)
			}
			if !bytes.Equal(want, stdout.Bytes()) {
				t.Errorf("output of examples/%s diverged from %s\n--- want ---\n%s\n--- got ---\n%s",
					name, golden, want, stdout.Bytes())
			}
		})
	}
}

// TestUpdatesReplayGolden runs divcli in -updates replay mode over the
// checked-in dynamic points workload and diffs the transcript against the
// golden file: an end-to-end regression for the incremental refresh path —
// the per-checkpoint refresh modes and delta sizes are part of the
// transcript, so a silent fall-back to full rebuilds fails the test just
// as a wrong selection does.
func TestUpdatesReplayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	cmd := exec.Command("go", "run", "./cmd/divcli",
		"-load", "P=testdata/updates/P.tsv",
		"-query", "Q(c0, c1) :- P(c0, c1), c0 <= 400",
		"-k", "3", "-objective", "max-sum", "-lambda", "0.7",
		"-relevance-attr", "c0", "-distance-attr", "c1",
		"-updates", "testdata/updates/updates.tsv")
	cmd.Env = os.Environ()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("divcli -updates: %v\nstderr:\n%s", err, stderr.String())
	}
	golden := filepath.Join("testdata", "golden", "updates-replay.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file %s (run `go test -run TestUpdatesReplayGolden -update .`): %v", golden, err)
	}
	if !bytes.Equal(want, stdout.Bytes()) {
		t.Errorf("updates replay diverged from %s\n--- want ---\n%s\n--- got ---\n%s",
			golden, want, stdout.Bytes())
	}
}

// elapsedRE scrubs the only non-deterministic field of the wire protocol
// from the serve transcript.
var elapsedRE = regexp.MustCompile(`"elapsed_ns":[0-9]+`)

// TestServeGolden runs the divserve binary against its built-in demo
// database and replays the README's curl transcript over real HTTP,
// diffing the (elapsed-scrubbed) responses against the golden file. Any
// change to the wire protocol — routes, field names, status codes, the
// plan explanation — shows up as a golden diff.
func TestServeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run and a TCP listener")
	}
	// Reserve a port, free it, and hand it to divserve: a small window of
	// race, but deterministic enough for a test that retries its probe.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	// Build the real binary and exec it directly: `go run` would interpose
	// a parent process whose death leaves the server holding the pipe.
	bin := filepath.Join(t.TempDir(), "divserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/divserve")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building divserve: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-demo", "-addr", addr)
	cmd.Env = os.Environ()
	var serverLog bytes.Buffer
	cmd.Stdout, cmd.Stderr = &serverLog, &serverLog
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	base := "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("divserve never became healthy: %v\nserver log:\n%s", err, serverLog.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The transcript: the same requests the README documents with curl.
	steps := []struct {
		method, path, body string
	}{
		{"GET", "/healthz", ""},
		{"POST", "/v1/query/gifts", `{"problem":"diversify","explain":true}`},
		{"POST", "/v1/query/gifts", `{"problem":"decide","bound":40}`},
		// A negative decide answer must still carry its field on the wire:
		// "exists":false, not an absent key.
		{"POST", "/v1/query/gifts", `{"problem":"decide","bound":1000}`},
		{"POST", "/v1/query/gifts", `{"problem":"count","bound":40}`},
		// An exact repeat of the decide query above: the generation is
		// unchanged, so this is a cache hit — "cached":true on the wire,
		// and the /metrics step below pins the hit counter.
		{"POST", "/v1/query/gifts", `{"problem":"decide","bound":40}`},
		{"POST", "/v1/refresh/gifts", ""},
		{"POST", "/v1/query/nope", `{}`},
		{"POST", "/v1/query/gifts", `{"k":-1}`},
		{"GET", "/metrics", ""},
	}
	var transcript strings.Builder
	for _, s := range steps {
		fmt.Fprintf(&transcript, "$ %s %s %s\n", s.method, s.path, s.body)
		var resp *http.Response
		var err error
		if s.method == "GET" {
			resp, err = client.Get(base + s.path)
		} else {
			resp, err = client.Post(base+s.path, "application/json", strings.NewReader(s.body))
		}
		if err != nil {
			t.Fatalf("%s %s: %v", s.method, s.path, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body := elapsedRE.ReplaceAllString(strings.TrimSpace(string(raw)), `"elapsed_ns":0`)
		fmt.Fprintf(&transcript, "%d %s\n", resp.StatusCode, body)
	}

	golden := filepath.Join("testdata", "golden", "serve.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(transcript.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file %s (run `go test -run TestServeGolden -update .`): %v", golden, err)
	}
	if string(want) != transcript.String() {
		t.Errorf("serve transcript diverged from %s\n--- want ---\n%s\n--- got ---\n%s",
			golden, want, transcript.String())
	}
}

// elapsedHumanRE scrubs divquery's human-format elapsed field;
// elapsedIndentRE its indented-JSON form (MarshalIndent spaces the colon).
var (
	elapsedHumanRE  = regexp.MustCompile(`elapsed=[^\s]+`)
	elapsedIndentRE = regexp.MustCompile(`"elapsed_ns": [0-9]+`)
)

// TestDegradedQueryGolden boots divserve with a poisoned cost model (the
// exact route claims an hour per solve) and a 2s default deadline, so every
// diversify request plan-degrades to the greedy route, then records the
// divquery view of it — the human degraded line and the degraded /
// degraded_from wire fields — as a golden transcript. The note text with
// its wall-clock numbers stays out (no -explain): everything captured here
// is deterministic.
func TestDegradedQueryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run and a TCP listener")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	dir := t.TempDir()
	serveBin := filepath.Join(dir, "divserve")
	queryBin := filepath.Join(dir, "divquery")
	for bin, pkg := range map[string]string{serveBin: "./cmd/divserve", queryBin: "./cmd/divquery"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Env = os.Environ()
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	cmd := exec.Command(serveBin, "-demo", "-addr", addr, "-cost-hint", "exact=1h", "-timeout", "2s")
	cmd.Env = os.Environ()
	var serverLog bytes.Buffer
	cmd.Stdout, cmd.Stderr = &serverLog, &serverLog
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	base := "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("divserve never became healthy: %v\nserver log:\n%s", err, serverLog.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	var transcript strings.Builder
	for _, args := range [][]string{
		{"-stmt", "gifts"},
		{"-stmt", "gifts", "-json"},
	} {
		fmt.Fprintf(&transcript, "$ divquery %s\n", strings.Join(args, " "))
		q := exec.Command(queryBin, append([]string{"-addr", base}, args...)...)
		q.Env = os.Environ()
		var stdout, stderr bytes.Buffer
		q.Stdout, q.Stderr = &stdout, &stderr
		if err := q.Run(); err != nil {
			t.Fatalf("divquery %v: %v\nstderr:\n%s", args, err, stderr.String())
		}
		out := elapsedIndentRE.ReplaceAllString(stdout.String(), `"elapsed_ns": 0`)
		out = elapsedHumanRE.ReplaceAllString(out, "elapsed=0s")
		transcript.WriteString(out)
	}

	golden := filepath.Join("testdata", "golden", "degraded-query.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(transcript.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file %s (run `go test -run TestDegradedQueryGolden -update .`): %v", golden, err)
	}
	if string(want) != transcript.String() {
		t.Errorf("degraded query transcript diverged from %s\n--- want ---\n%s\n--- got ---\n%s",
			golden, want, transcript.String())
	}
}

// goldenSections is a golden file made of named sections, one per subtest:
// each section opens with a "== name ==" line. A subtest diffs only its
// own section, so a failure names its cell and -run can select a subset;
// -update rewrites the sections that ran and keeps the others.
type goldenSections struct {
	path  string
	order []string
	text  map[string]string
}

// loadGoldenSections reads testdata/golden/<name>; under -update it also
// registers the rewrite to run once the calling test's subtests finish.
func loadGoldenSections(t *testing.T, name string) *goldenSections {
	t.Helper()
	g := &goldenSections{path: filepath.Join("testdata", "golden", name), text: map[string]string{}}
	data, err := os.ReadFile(g.path)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatalf("missing golden file %s (run `go test -run %s -update .`): %v", g.path, t.Name(), err)
	}
	section := ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==\n") {
			section = strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==\n")
			g.order = append(g.order, section)
			continue
		}
		g.text[section] += line
	}
	if *updateGolden {
		t.Cleanup(func() {
			var b strings.Builder
			for _, s := range g.order {
				fmt.Fprintf(&b, "== %s ==\n%s", s, g.text[s])
			}
			if err := os.WriteFile(g.path, []byte(b.String()), 0o644); err != nil {
				t.Error(err)
			}
		})
	}
	return g
}

// check diffs the calling subtest's output against the section named after
// it (its name below the top-level test), or records it under -update.
func (g *goldenSections) check(t *testing.T, got string) {
	t.Helper()
	name := t.Name()[strings.Index(t.Name(), "/")+1:]
	want, ok := g.text[name]
	if *updateGolden {
		if !ok {
			g.order = append(g.order, name)
		}
		g.text[name] = got
		return
	}
	if !ok {
		t.Fatalf("%s has no section %q (run with -update)", g.path, name)
	}
	if got != want {
		t.Errorf("section %q diverged from %s\n--- want ---\n%s\n--- got ---\n%s", name, g.path, want, got)
	}
}
