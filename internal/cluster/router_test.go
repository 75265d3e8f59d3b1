package cluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fmtRowKey is RowKey's recipe spelled with fmt, one Fprintf per value: the
// reference appendRowKey must match byte for byte.
func fmtRowKey(row []interface{}) string {
	var b strings.Builder
	for _, v := range row {
		switch x := v.(type) {
		case int64:
			fmt.Fprintf(&b, "i%d|", x)
		case int:
			fmt.Fprintf(&b, "i%d|", x)
		case float64:
			fmt.Fprintf(&b, "f%g|", x)
		case bool:
			fmt.Fprintf(&b, "b%t|", x)
		case string:
			fmt.Fprintf(&b, "s%q|", x)
		default:
			fmt.Fprintf(&b, "?%v|", x)
		}
	}
	return b.String()
}

// fmtShardOf is ShardOf over fmtRowKey through hash/fnv.
func fmtShardOf(row []interface{}, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(fmtRowKey(row)))
	return int(h.Sum32() % uint32(shards))
}

// randomValue draws a value of every kind a row can carry, favouring the
// renderings that need care: NaN, ±Inf, -0, large and tiny floats, negative
// and extreme ints, and strings with quotes, NUL, control bytes, invalid
// UTF-8 and non-ASCII text.
func randomValue(rng *rand.Rand) interface{} {
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e21, 1e20, 1e-7, 5e-324, math.MaxFloat64, 0.1, -2.5}
	strs := []string{"", `say "hi"`, "a\x00b", "\xff\xfe", "tab\there", "back\\slash", "ünïcode", "c017", " ", "\x7f"}
	switch rng.Intn(8) {
	case 0:
		return rng.Int63() - rng.Int63()
	case 1:
		return []int64{math.MinInt64, math.MaxInt64, -1, 0}[rng.Intn(4)]
	case 2:
		return int(rng.Int31()) - int(rng.Int31())
	case 3:
		return floats[rng.Intn(len(floats))]
	case 4:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	case 5:
		return rng.Intn(2) == 0
	case 6:
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return string(b)
	default:
		return strs[rng.Intn(len(strs))]
	}
}

// TestRowKeyMatchesFmtRecipe: the strconv-built key equals the fmt-built
// one on random rows of every kind, so every row keeps its shard.
func TestRowKeyMatchesFmtRecipe(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		row := make([]interface{}, 1+rng.Intn(5))
		for j := range row {
			row[j] = randomValue(rng)
		}
		if got, want := RowKey(row), fmtRowKey(row); got != want {
			t.Fatalf("RowKey(%#v) = %q, fmt recipe %q", row, got, want)
		}
		for _, s := range []int{2, 3, 8} {
			if got, want := ShardOf(row, s), fmtShardOf(row, s); got != want {
				t.Fatalf("ShardOf(%#v, %d) = %d, fmt recipe %d", row, s, got, want)
			}
		}
	}
	odd := []interface{}{uint8(3), []int{1}, nil}
	if got, want := RowKey(odd), fmtRowKey(odd); got != want {
		t.Fatalf("RowKey of other types = %q, fmt recipe %q", got, want)
	}
}

// TestShardOfPinned pins the shard of fixed rows, as computed before the
// key was built with strconv: a changed hash would strand the rows a
// durable shard already holds.
func TestShardOfPinned(t *testing.T) {
	cases := []struct {
		row    []interface{}
		key    string
		s2, s3 int
		s8     int
	}{
		{[]interface{}{int64(1), "c001", 0.5}, `i1|s"c001"|f0.5|`, 1, 1, 7},
		{[]interface{}{"silver ring", "jewelry", 28, 2}, `s"silver ring"|s"jewelry"|i28|i2|`, 0, 0, 2},
		{[]interface{}{math.NaN(), math.Inf(1), math.Inf(-1)}, `fNaN|f+Inf|f-Inf|`, 0, 1, 4},
		{[]interface{}{math.Copysign(0, -1), 1e21, int64(-42)}, `f-0|f1e+21|i-42|`, 0, 2, 4},
		{[]interface{}{"a\x00b", "\xff\xfe", `say "hi"`}, `s"a\x00b"|s"\xff\xfe"|s"say \"hi\""|`, 0, 2, 6},
		{[]interface{}{true, false, uint8(3)}, `btrue|bfalse|?3|`, 0, 2, 0},
	}
	for _, c := range cases {
		if got := RowKey(c.row); got != c.key {
			t.Errorf("RowKey(%#v) = %q, want %q", c.row, got, c.key)
		}
		for _, s := range []struct{ n, want int }{{2, c.s2}, {3, c.s3}, {8, c.s8}} {
			if got := ShardOf(c.row, s.n); got != s.want {
				t.Errorf("ShardOf(%#v, %d) = %d, want %d", c.row, s.n, got, s.want)
			}
		}
	}
}

// TestShardOfAllocatesNothing: routing a row of the supported types costs
// no allocation, so a shard hashing every row it reads at boot pays only
// for the hash.
func TestShardOfAllocatesNothing(t *testing.T) {
	row := []interface{}{int64(123456), "c042", 0.1234567, true}
	if n := testing.AllocsPerRun(100, func() { ShardOf(row, 2) }); n != 0 {
		t.Errorf("ShardOf allocates %v times per row, want 0", n)
	}
}

// BenchmarkShardOf prices routing one warm-read-shaped row.
func BenchmarkShardOf(b *testing.B) {
	row := []interface{}{int64(123456), "c042", 0.1234567}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ShardOf(row, 2)
	}
}
