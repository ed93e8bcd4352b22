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
		// The parallel-application figures (Fig 8, recovery, storage): the
		// small scale's values, written out so they cannot drift with it.
		Ranks: 4, AppItersS: 10, AppItersL: 10,
		EdgeSmall: 8, EdgeLarge: 12, CkptEvery: 5,
		AppHeap: 8 << 20,
	}
}

// TestGoldenFigures is the golden-diff guard: every table crpmbench prints,
// the paper's and the extensions', must stay byte-identical to the pinned
// CSVs. A PR that adds a backend (or any other axis) must leave these
// outputs untouched; a PR that deliberately changes a figure regenerates the
// goldens with UPDATE_GOLDEN=1 and explains why in its description.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	sc := goldenScale()
	kind := func(f func(Scale, DSKind) (Table, error), k DSKind) func(Scale) (Table, error) {
		return func(sc Scale) (Table, error) { return f(sc, k) }
	}
	figures := []struct {
		name string
		run  func(Scale) (Table, error)
		// alone runs the figure to completion before the parallel ones start.
		alone bool
	}{
		// It swaps the process-wide default cost model, which every device
		// the other subtests build meanwhile would pick up.
		{name: "ablation_eadr", run: AblationEADR, alone: true},
		{name: "fig1", run: Fig1Breakdown},
		{name: "fig7", run: kind(Fig7Throughput, DSHashMap)},
		{name: "fig7_map", run: kind(Fig7Throughput, DSRBMap)},
		{name: "fig8", run: Fig8Apps},
		{name: "fig9", run: kind(Fig9Interval, DSHashMap)},
		{name: "fig9_map", run: kind(Fig9Interval, DSRBMap)},
		{name: "fig10a", run: Fig10aSegment},
		{name: "fig10b", run: Fig10bBlock},
		{name: "table1a", run: Table1a},
		{name: "table1b", run: Table1b},
		{name: "service", run: ServiceFigure},
		{name: "replica", run: ReplicaFigure},
		{name: "crossover", run: CrossoverFigure},
		{name: "onwrite", run: OnWriteMicro},
		{name: "service_backends", run: ServiceBackendFigure},
		{name: "slo", run: SLOFigure},
		{name: "elastic", run: ElasticFigure},
		{name: "recovery", run: RecoveryTime},
		{name: "pauses", run: PauseTimes},
		{name: "storage", run: StorageCost},
		{name: "ablation_eager_cow", run: AblationEagerCoW},
		{name: "ablation_diff_copy", run: AblationDifferentialCopy},
		{name: "ablation_flush_path", run: AblationFlushThreshold},
		{name: "ablation_backup_ratio", run: AblationBackupRatio},
		{name: "ablation_fti", run: AblationFTIIncremental},
		{name: "ablation_modes", run: AblationBufferedVsDefault},
	}
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, fig := range figures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			if !fig.alone {
				t.Parallel()
			}
			tb, err := fig.run(sc)
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
