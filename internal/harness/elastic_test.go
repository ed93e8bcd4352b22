package harness

import (
	"strings"
	"testing"
)

// TestElasticFigureShape runs the elastic-resharding study at test scale
// and at the goldens' scale (whose base run is shorter than the migration:
// the figure has to size the run from its own flip) and checks the figure's
// qualitative claims: both cut styles complete the split (moved keys > 0)
// and every one of the six windows is populated.
func TestElasticFigureShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	for _, sc := range []Scale{testScale(), goldenScale()} {
		tb, err := ElasticFigure(sc)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s", tb)
		if len(tb.Rows) != 6 {
			t.Fatalf("%s: row count %d, want 6 (2 setups x 3 phases)", sc.Name, len(tb.Rows))
		}
		for _, setup := range []string{"stw-cut", "inc-pipeline"} {
			for _, phase := range []string{"before", "during", "after"} {
				mops, ok := tb.Metrics["elastic_mops/"+setup+"/"+phase]
				if !ok {
					t.Fatalf("%s: missing metric elastic_mops/%s/%s", sc.Name, setup, phase)
				}
				if mops <= 0 {
					t.Errorf("%s: %s/%s: zero throughput — window unpopulated", sc.Name, setup, phase)
				}
				if p99 := tb.Metrics["elastic_p99_us/"+setup+"/"+phase]; p99 <= 0 {
					t.Errorf("%s: %s/%s: zero p99", sc.Name, setup, phase)
				}
			}
		}
		// The during row carries the moved-key count.
		movedSeen := false
		for _, row := range tb.Rows {
			if row[1] == "during" && row[5] != "" && row[5] != "0" {
				movedSeen = true
			}
		}
		if !movedSeen {
			t.Fatalf("%s: no during row reports moved keys", sc.Name)
		}
	}
}

// TestElasticFigureParallelIdentical pins the byte-identity acceptance:
// the elastic figure's CSV is identical at -parallel 1 and -parallel 8.
func TestElasticFigureParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	sc := testScale()
	run := func(workers int) string {
		SetParallelism(workers)
		defer SetParallelism(0)
		tb, err := ElasticFigure(sc)
		if err != nil {
			t.Fatal(err)
		}
		return tb.CSV()
	}
	serial, parallel := run(1), run(8)
	if serial != parallel {
		t.Fatalf("elastic CSV differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "during") {
		t.Fatalf("CSV missing during rows:\n%s", serial)
	}
}
