package faults

import "testing"

func TestFireCountsAndRestore(t *testing.T) {
	Fire(RoutePop) // no hook: must be a no-op

	var seen []int64
	restore := Set(RoutePop, func(n int64) { seen = append(seen, n) })
	Fire(RoutePop)
	Fire(RoutePop)
	Fire(MDijkstraRun) // different point: no hook
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("hook saw %v, want [1 2]", seen)
	}

	restore()
	Fire(RoutePop)
	if len(seen) != 2 {
		t.Fatalf("hook fired after restore: %v", seen)
	}
	restore() // a second restore must leave the point uninstalled
	Fire(RoutePop)
	if len(seen) != 2 {
		t.Fatalf("hook fired after a double restore: %v", seen)
	}
}

func TestSetReplacesAndCountsFresh(t *testing.T) {
	defer Reset()
	var a, b, c int64
	Set(DestLeg, func(n int64) { a = n })
	Fire(DestLeg)
	Fire(DestLeg)
	Set(DestLeg, func(n int64) { b = n })
	Fire(DestLeg)
	if a != 2 {
		t.Fatalf("first hook saw %d fires, want 2", a)
	}
	if b != 1 {
		t.Fatalf("replacement hook saw n=%d, want a fresh count of 1", b)
	}
	Set(RoutePop, func(n int64) { c = n })
	Reset()
	Fire(DestLeg)
	Fire(RoutePop)
	if b != 1 || c != 0 {
		t.Fatalf("hooks fired after Reset: DestLeg n=%d, RoutePop n=%d", b, c)
	}
}
