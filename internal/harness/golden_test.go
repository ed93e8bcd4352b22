package harness

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenScale is pinned independently of SmallScale: the goldens assert
// byte-identity of figure CSVs across PRs, so the scale they were captured
// at must never drift implicitly.
func goldenScale() Scale {
	return Scale{
		Name:     "golden",
		Keys:     40_000,
		Ops:      20_000,
		HeapSize: 16 << 20,
		Buckets:  1 << 17,
		Interval: 2_000_000, // 2ms
	}
}

// TestGoldenFigures is the golden-diff guard: the paper figures and the
// service/replica extension figures, with every new backend off, must stay
// byte-identical to the pinned CSVs. A PR that adds a backend (or any
// other axis) must leave these outputs untouched; a PR that deliberately
// changes a figure regenerates the goldens with UPDATE_GOLDEN=1 and
// explains why in its description.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	sc := goldenScale()
	figures := []struct {
		name string
		run  func() (Table, error)
	}{
		{"fig1", func() (Table, error) { return Fig1Breakdown(sc) }},
		{"fig7", func() (Table, error) { return Fig7Throughput(sc, DSHashMap) }},
		{"service", func() (Table, error) { return ServiceFigure(sc) }},
		{"replica", func() (Table, error) { return ReplicaFigure(sc) }},
		{"crossover", func() (Table, error) { return CrossoverFigure(sc) }},
		{"slo", func() (Table, error) { return SLOFigure(sc) }},
		{"elastic", func() (Table, error) { return ElasticFigure(sc) }},
	}
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, fig := range figures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			t.Parallel()
			tb, err := fig.run()
			if err != nil {
				t.Fatal(err)
			}
			got := tb.CSV()
			path := filepath.Join("..", "..", "results", "golden", fig.name+".csv")
			if update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s CSV drifted from %s;\nif the change is intentional, regenerate with UPDATE_GOLDEN=1\ngot:\n%s\nwant:\n%s",
					fig.name, path, got, want)
			}
		})
	}
}
