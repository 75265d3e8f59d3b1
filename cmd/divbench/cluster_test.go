package main

import "testing"

// TestClusterSweepSmoke runs the -cluster experiment at its smallest size
// (n = 10⁴, four shards, both slack arms) so the sweep cannot rot: every
// shard server, coordinator and timed merge must complete, and the report
// generator must not fatal.
func TestClusterSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep skipped in -short mode")
	}
	runClusterSweep(10_000, 1)
}
