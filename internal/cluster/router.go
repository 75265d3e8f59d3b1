// Package cluster distributes the diversification engine across S shard
// processes: a Router hash-partitions relation mutations over the shards,
// and a Coordinator fans diversify requests out, collects per-shard
// k′-coresets and merges them with diversification.MergeCoresets — one
// greedy solve over their union, with no engine on the coordinator.
// Each shard is a full durable Service reached through httpapi.Client, so
// the cluster composes everything the single-engine tier already has —
// WAL durability, admission control, result caching, degradation — per
// shard, and adds partial-result degradation when a shard is down. The
// design follows D4M's associative-array distribution for the partitioned
// relational state; the merge step is sound because the paper's greedy
// 2-approximation survives composition (solve shard-locally, solve again
// over the union of coresets).
package cluster

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// RowKey renders a row of attribute values as a canonical type-tagged
// string: the routing hash input. The type tag keeps int64(1), float64(1)
// and "1" distinct, so the three spellings may route to different shards.
func RowKey(row []interface{}) string {
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

// ShardOf deterministically assigns a row to one of shards buckets:
// FNV-1a over the canonical row key, modulo the shard count. Both the
// mutation router and shard-mode data loading use it, so a row always
// lives on exactly one shard regardless of which path wrote it.
func ShardOf(row []interface{}, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(RowKey(row)))
	return int(h.Sum32() % uint32(shards))
}
