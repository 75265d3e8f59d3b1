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
	"strconv"
)

// RowKey renders a row of attribute values as a canonical type-tagged
// string: the routing hash input. The type tag keeps int64(1), float64(1)
// and "1" distinct, so the three spellings may route to different shards.
func RowKey(row []interface{}) string {
	return string(appendRowKey(nil, row))
}

// appendRowKey appends RowKey(row) to dst. Each value renders as fmt's
// verb for its type would (%d, %g, %t, %q), through strconv, so a row of
// the supported types costs no allocation beyond dst's growth.
func appendRowKey(dst []byte, row []interface{}) []byte {
	for _, v := range row {
		switch x := v.(type) {
		case int64:
			dst = strconv.AppendInt(append(dst, 'i'), x, 10)
		case int:
			dst = strconv.AppendInt(append(dst, 'i'), int64(x), 10)
		case float64:
			dst = strconv.AppendFloat(append(dst, 'f'), x, 'g', -1, 64)
		case bool:
			dst = strconv.AppendBool(append(dst, 'b'), x)
		case string:
			dst = strconv.AppendQuote(append(dst, 's'), x)
		default:
			dst = append(dst, fmt.Sprintf("?%v", x)...)
		}
		dst = append(dst, '|')
	}
	return dst
}

// ShardOf deterministically assigns a row to one of shards buckets:
// FNV-1a over the canonical row key, modulo the shard count. Both the
// mutation router and shard-mode data loading use it, so a row always
// lives on exactly one shard regardless of which path wrote it.
func ShardOf(row []interface{}, shards int) int {
	if shards <= 1 {
		return 0
	}
	var buf [64]byte
	h := uint32(2166136261) // FNV-1a, 32-bit: offset basis and prime
	for _, c := range appendRowKey(buf[:0], row) {
		h ^= uint32(c)
		h *= 16777619
	}
	return int(h % uint32(shards))
}
