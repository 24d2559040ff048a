package experiments

import (
	"strconv"
	"testing"
)

// storeRow fetches a cell from the chaos-store summary or counter tables.
func storeRow(t *testing.T, tab *Table, match func(row []string) bool, col int) string {
	t.Helper()
	for _, row := range tab.Rows {
		if match(row) {
			return row[col]
		}
	}
	t.Fatalf("table %q has no matching row", tab.Title)
	return ""
}

// TestChaosStoreRecoveryExact is the acceptance test of the durability
// design: crash the kvstore mid-run, recover it from its AOF+snapshot, and
// the final tables must still be byte-identical to the crash-free golden
// run, with the recovery machinery demonstrably exercised (replay counters
// advanced, live connections cut and redialled).
func TestChaosStoreRecoveryExact(t *testing.T) {
	tabs, err := Run("chaos-store", Options{Seed: 5, Scale: 0.14, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) < 2 {
		t.Fatalf("chaos-store returned %d tables, want summary + counters + golden", len(tabs))
	}
	sum, counters := tabs[0], tabs[1]

	if got := storeRow(t, sum, func(r []string) bool { return r[0] == "restart-from-aof" }, 2); got != "yes" {
		t.Fatalf("restart-from-aof diverged from golden:\n%s", sum)
	}
	// The leg crashed the store, after a committed snapshot...
	tick := storeRow(t, sum, func(r []string) bool { return r[0] == "restart-from-aof" }, 1)
	if _, err := strconv.Atoi(tick); err != nil {
		t.Fatalf("restart-from-aof crash tick = %q, want a tick — the store never crashed:\n%s", tick, sum)
	}

	counter := func(leg, name string) int {
		v := storeRow(t, counters, func(r []string) bool {
			return r[0] == leg && r[1] == name
		}, 2)
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("%s %s = %q, not a number", leg, name, v)
		}
		return n
	}
	// ...must actually have replayed state from disk...
	if n := counter("restart-from-aof", "kvstore_aof_replayed_total"); n == 0 {
		t.Fatal("restart leg replayed nothing — the crash never exercised recovery")
	}
	if n := counter("restart-from-aof", "kvstore_aof_appends_total"); n == 0 {
		t.Fatal("restart leg appended nothing to the AOF")
	}
	if n := counter("restart-from-aof", "kvstore_snapshots_total"); n == 0 {
		t.Fatal("restart leg took no snapshot — recovery replayed the AOF alone")
	}
	// ...and must really have cut the pipeline's live connections.
	if n := counter("restart-from-aof", "kvstore_client_redials_total"); n < 1 {
		t.Fatal("restart leg redialled nothing — the crash never cut a live connection")
	}
}
