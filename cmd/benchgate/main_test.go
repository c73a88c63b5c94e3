package main

import "testing"

func TestParseBaselineBytesCeiling(t *testing.T) {
	g, err := parseBaseline([]byte(`{"A": 3, "B": {"max_bytes_per_op": 262144}}`))
	if err != nil {
		t.Fatal(err)
	}
	if a := g["A"]; a.MaxAllocsPerOp == nil || *a.MaxAllocsPerOp != 3 || a.MaxBytesPerOp != nil {
		t.Fatalf("bare entry parsed as %s", a)
	}
	if b := g["B"]; b.MaxBytesPerOp == nil || *b.MaxBytesPerOp != 262144 || b.MaxAllocsPerOp != nil {
		t.Fatalf("bytes entry parsed as %s", b)
	}
	if _, err := parseBaseline([]byte(`{"C": {}}`)); err == nil {
		t.Fatal("an entry with no bounds was accepted")
	}
}

func TestCeilingVerdicts(t *testing.T) {
	for _, c := range []struct {
		got, limit int64
		ok         bool
	}{
		{51044, 262144, true},
		{262144, 262144, true},
		{262145, 262144, false},
		{-1, 262144, false}, // run without -benchmem
	} {
		if ok := ceiling("BenchmarkX", "B/op", c.got, c.limit); ok != c.ok {
			t.Errorf("ceiling(%d, limit %d) = %v, want %v", c.got, c.limit, ok, c.ok)
		}
	}
}
