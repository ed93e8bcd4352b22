package harness

import (
	"strconv"
	"strings"
	"testing"

	"libcrpm/internal/nvm"
	"libcrpm/internal/workload"
)

// cell parses a table cell as a float.
func cell(t *testing.T, tb Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tb.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

// rowByName finds a row by its first cell.
func rowByName(t *testing.T, tb Table, name string) int {
	t.Helper()
	for i, r := range tb.Rows {
		if r[0] == name {
			return i
		}
	}
	t.Fatalf("table %q has no row %q:\n%s", tb.Title, name, tb)
	return -1
}

func TestTableFormatting(t *testing.T) {
	tb := Table{
		Title:  "test",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"x", "1"}, {"yyyy", "2"}},
		Notes:  []string{"a note"},
	}
	s := tb.String()
	for _, want := range []string{"== test ==", "bbbb", "yyyy", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestNewDSSetupRejectsUnknown(t *testing.T) {
	if _, err := NewDSSetup("nonsense", DSHashMap, SmallScale(), Geometry{}); err == nil {
		t.Fatal("unknown system accepted")
	}
	if _, err := NewDSSetup("Dali", DSRBMap, SmallScale(), Geometry{}); err == nil {
		t.Fatal("Dalí rb-map accepted")
	}
	if _, err := NewDSSetup("NVM-NP", DSKind("weird"), SmallScale(), Geometry{}); err == nil {
		t.Fatal("unknown structure accepted")
	}
}

func TestDSSystemsLists(t *testing.T) {
	h := DSSystems(DSHashMap)
	r := DSSystems(DSRBMap)
	if len(h) != len(r)+1 {
		t.Fatalf("hashmap systems %d, rbmap %d", len(h), len(r))
	}
	for _, s := range r {
		if s == "Dali" {
			t.Fatal("Dalí listed for the rb map")
		}
	}
}

// testScale is a trimmed scale keeping shape tests fast.
func testScale() Scale {
	sc := SmallScale()
	sc.Ops = 50_000
	sc.Keys = 60_000
	return sc
}

// TestFig7Shape asserts the paper's qualitative claims on the hash map:
// libcrpm-Default beats the page-tracking and logging baselines and Dalí,
// stays close to NVM-NP, and matches it exactly on read-only.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	sc := testScale()
	tb, err := Fig7Throughput(sc, DSHashMap)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	get := func(sys string, col int) float64 { return cell(t, tb, rowByName(t, tb, sys), col) }
	const balanced = 2
	def := get("libcrpm-Default", balanced)
	for _, sys := range []string{"Mprotect", "Soft-dirty bit", "Undo-log", "LMC", "Dali"} {
		if v := get(sys, balanced); v >= def {
			t.Errorf("balanced: %s (%.3f) should be below libcrpm-Default (%.3f)", sys, v, def)
		}
	}
	np := get("NVM-NP", balanced)
	if def > np {
		t.Errorf("balanced: libcrpm-Default (%.3f) above NVM-NP (%.3f)", def, np)
	}
	if def < 0.5*np {
		t.Errorf("balanced: libcrpm-Default (%.3f) less than half of NVM-NP (%.3f); paper reports ~88%%", def, np)
	}
	// Read-only: nothing to checkpoint, Default runs as fast as NVM-NP.
	const readOnly = 4
	d, n := get("libcrpm-Default", readOnly), get("NVM-NP", readOnly)
	if d < 0.99*n {
		t.Errorf("read-only: libcrpm-Default %.3f vs NVM-NP %.3f; paper says equal", d, n)
	}
}

// TestFig7RBMapRuns exercises the tree variant end to end.
func TestFig7RBMapRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	sc := testScale()
	sc.Ops = 20_000
	sc.Keys = 20_000
	tb, err := Fig7Throughput(sc, DSRBMap)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(DSSystems(DSRBMap)) {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		for c := 1; c < len(r); c++ {
			if v, _ := strconv.ParseFloat(r[c], 64); v <= 0 {
				t.Errorf("row %s col %d: non-positive throughput %s", r[0], c, r[c])
			}
		}
	}
}

// TestTable1aShape asserts the write-amplification ordering of Table 1a:
// libcrpm's block-granularity checkpoints are far smaller than the page-
// granularity baselines, and soft-dirty is the worst on read-heavy.
func TestTable1aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	tb, err := Table1a(testScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	const balanced, readHeavy = 2, 3
	mp := cell(t, tb, rowByName(t, tb, "Mprotect"), balanced)
	sd := cell(t, tb, rowByName(t, tb, "Soft-dirty bit"), balanced)
	lc := cell(t, tb, rowByName(t, tb, "libcrpm-Default"), balanced)
	if lc*3 > mp {
		t.Errorf("balanced: libcrpm %.1f B/op not well below mprotect %.1f (paper: 94%% reduction)", lc, mp)
	}
	if lc*3 > sd {
		t.Errorf("balanced: libcrpm %.1f B/op not well below soft-dirty %.1f", lc, sd)
	}
	sdr := cell(t, tb, rowByName(t, tb, "Soft-dirty bit"), readHeavy)
	mpr := cell(t, tb, rowByName(t, tb, "Mprotect"), readHeavy)
	if sdr <= mpr {
		t.Errorf("read-heavy: soft-dirty %.1f should exceed mprotect %.1f (collateral marking)", sdr, mpr)
	}
}

// TestTable1bShape asserts the fence-count collapse of Table 1b: a handful
// of fences per epoch for libcrpm against thousands for the logging
// baselines (the paper reports a 99.85% reduction).
func TestTable1bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	tb, err := Table1b(testScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	for col := 1; col <= 2; col++ { // insert-only, balanced
		ul := cell(t, tb, rowByName(t, tb, "Undo-log"), col)
		lm := cell(t, tb, rowByName(t, tb, "LMC"), col)
		lc := cell(t, tb, rowByName(t, tb, "libcrpm-Default"), col)
		if lc > 10 {
			t.Errorf("col %d: libcrpm issues %.1f fences/epoch, want single digits", col, lc)
		}
		if lc*50 > ul || lc*50 > lm {
			t.Errorf("col %d: reduction too small (libcrpm %.1f, undo %.1f, lmc %.1f)", col, lc, ul, lm)
		}
	}
}

// TestFig1BreakdownShape asserts the Figure 1 structure: page tracking
// dominated by checkpointing, logging dominated by memory tracing, libcrpm
// execution-dominated.
func TestFig1BreakdownShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	tb, err := Fig1Breakdown(testScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	const exec, trace, ckpt = 2, 3, 4
	if v := cell(t, tb, rowByName(t, tb, "Soft-dirty bit"), ckpt); v < 40 {
		t.Errorf("soft-dirty checkpoint share %.1f%%, paper ~66%%", v)
	}
	mpTrace := cell(t, tb, rowByName(t, tb, "Mprotect"), trace)
	if mpTrace < 15 {
		t.Errorf("mprotect trace share %.1f%%, paper ~48%%", mpTrace)
	}
	ulTrace := cell(t, tb, rowByName(t, tb, "Undo-log"), trace)
	if ulTrace < 15 {
		t.Errorf("undo-log trace share %.1f%%, paper ~49%%", ulTrace)
	}
	lcExec := cell(t, tb, rowByName(t, tb, "libcrpm-Default"), exec)
	if lcExec < 60 {
		t.Errorf("libcrpm execution share %.1f%%, should dominate", lcExec)
	}
}

// TestFig9IntervalShape asserts that libcrpm-Default stays on top across
// checkpoint intervals and that the page-tracking systems suffer most at
// high frequency.
func TestFig9IntervalShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	sc := testScale()
	sc.Ops = 30_000
	tb, err := Fig9Interval(sc, DSHashMap)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	// At the shortest interval (col 1), libcrpm beats both page trackers.
	lc := cell(t, tb, rowByName(t, tb, "libcrpm-Default"), 1)
	mp := cell(t, tb, rowByName(t, tb, "Mprotect"), 1)
	sd := cell(t, tb, rowByName(t, tb, "Soft-dirty bit"), 1)
	if lc <= mp || lc <= sd {
		t.Errorf("1ms interval: libcrpm %.3f should beat mprotect %.3f and soft-dirty %.3f", lc, mp, sd)
	}
	// Page trackers improve with longer intervals.
	mpLong := cell(t, tb, rowByName(t, tb, "Mprotect"), len(tb.Header)-1)
	if mpLong <= mp {
		t.Errorf("mprotect did not improve with longer intervals: %.3f -> %.3f", mp, mpLong)
	}
}

// TestFig10Shapes asserts the parameter-study behaviour: tiny segments hurt
// (metadata and fence overhead), and 256 B blocks beat 4 KB blocks under the
// balanced workload (the paper's 1.81x claim).
func TestFig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	sc := testScale()
	sc.Ops = 30_000
	ta, err := Fig10aSegment(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", ta)
	balRow := rowByName(t, ta, "Balanced")
	smallest := cell(t, ta, balRow, 1)
	best := smallest
	for c := 2; c < len(ta.Header); c++ {
		if v := cell(t, ta, balRow, c); v > best {
			best = v
		}
	}
	if best <= smallest {
		t.Errorf("balanced: no segment size beats the smallest (%.3f); paper shows small segments losing", smallest)
	}

	tbb, err := Fig10bBlock(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbb)
	row := rowByName(t, tbb, "Balanced")
	b256 := cell(t, tbb, row, 3) // 64,128,256 -> col 3
	b4k := cell(t, tbb, row, 5)
	if b256 <= b4k {
		t.Errorf("balanced: 256B blocks (%.3f) should beat 4KB blocks (%.3f)", b256, b4k)
	}
}

// TestFig8Shape asserts the headline claim: libcrpm-Buffered's checkpoint
// overhead is a fraction of FTI's for every app and size.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	sc := testScale()
	tb, err := Fig8Apps(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	for i, row := range tb.Rows {
		fti := cell(t, tb, i, 3)
		crpm := cell(t, tb, i, 4)
		if fti < 1 || crpm < 1 {
			t.Errorf("%s/%s: relative times below 1 (fti %.3f, crpm %.3f)", row[0], row[1], fti, crpm)
		}
		if crpm >= fti {
			t.Errorf("%s/%s: libcrpm overhead (%.3f) not below FTI (%.3f)", row[0], row[1], crpm, fti)
		}
	}
}

// TestRecoveryAndStorageRun exercises the §5.5/§5.6 reports end to end.
func TestRecoveryAndStorageRun(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	sc := testScale()
	rt, err := RecoveryTime(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rt)
	if len(rt.Rows) != 2 {
		t.Fatalf("recovery rows = %d", len(rt.Rows))
	}
	for _, row := range rt.Rows {
		if row[1] == "0s" {
			t.Errorf("dataset %s: zero recovery time", row[0])
		}
	}
	st, err := StorageCost(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", st)
	if len(st.Rows) < 5 {
		t.Fatalf("storage rows = %d", len(st.Rows))
	}
}

// TestDriverZipfConsistency ensures DSSetup drivers share workload
// parameters so cross-system comparisons are apples to apples.
func TestDriverZipfConsistency(t *testing.T) {
	sc := testScale()
	s1, err := NewDSSetup("NVM-NP", DSHashMap, sc, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewDSSetup("LMC", DSHashMap, sc, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := s1.Driver(sc, 42), s2.Driver(sc, 42)
	if err := d1.Populate(1000); err != nil {
		t.Fatal(err)
	}
	if err := d2.Populate(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Run(workload.Balanced, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Run(workload.Balanced, 500); err != nil {
		t.Fatal(err)
	}
	if s1.KV.Len() != s2.KV.Len() {
		t.Fatalf("same seed produced different contents: %d vs %d", s1.KV.Len(), s2.KV.Len())
	}
}

// TestMeasureDeltas pins the run record every data-structure cell reads: run
// counts from after the load, total from before it, both to the end of the
// run — checked against the same run taken by hand on a second setup. A
// read-only run on the undo log makes the two differ as far as they can: the
// load logs every granule it touches (bytes and two fences each), the run
// logs nothing and fences only at its checkpoints.
func TestMeasureDeltas(t *testing.T) {
	sc := testScale()
	sc.Ops, sc.Keys = 5_000, 4_000
	m, err := measureSystem("Undo-log", DSHashMap, sc, Geometry{}, 3, workload.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewDSSetup("Undo-log", DSHashMap, sc, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	clock := s.Dev.Clock()
	fences0, bytes0, ps0 := s.Dev.Stats().SFences, s.Backend.Metrics().CheckpointBytes, clock.NowPS()
	d, err := s.startRun(sc, 3, workload.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	fences1, bytes1, ps1, ckpt1 := s.Dev.Stats().SFences, s.Backend.Metrics().CheckpointBytes, clock.NowPS(), clock.CategoryPS(nvm.CatCheckpoint)
	res, err := d.Run(workload.ReadOnly, sc.Ops)
	if err != nil {
		t.Fatal(err)
	}
	fences2, bytes2, ps2, ckpt2 := s.Dev.Stats().SFences, s.Backend.Metrics().CheckpointBytes, clock.NowPS(), clock.CategoryPS(nvm.CatCheckpoint)
	if m.Result != res {
		t.Errorf("result %+v, by hand %+v", m.Result, res)
	}
	if m.run.dev.SFences != fences2-fences1 || m.run.ckpt.CheckpointBytes != bytes2-bytes1 ||
		m.run.nowPS != ps2-ps1 || m.run.catPS[nvm.CatCheckpoint] != ckpt2-ckpt1 {
		t.Errorf("run deltas %+v disagree with the run taken by hand", m.run)
	}
	if m.total.dev.SFences != fences2-fences0 || m.total.ckpt.CheckpointBytes != bytes2-bytes0 || m.total.nowPS != ps2-ps0 {
		t.Errorf("load-included deltas %+v disagree with the run taken by hand", m.total)
	}
	if m.run.ckpt.CheckpointBytes != 0 || m.total.ckpt.CheckpointBytes == 0 {
		t.Errorf("read-only run booked %d checkpoint bytes (want 0), load included %d (want some)",
			m.run.ckpt.CheckpointBytes, m.total.ckpt.CheckpointBytes)
	}
	if m.run.dev.SFences*100 > m.total.dev.SFences {
		t.Errorf("read-only run booked %d sfences of %d: the load's logging fences leaked into the run",
			m.run.dev.SFences, m.total.dev.SFences)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"x,y", `quote"d`}, {"plain", "2"}},
		Notes:  []string{"hello"},
	}
	csv := tb.CSV()
	want := "a,b\n\"x,y\",\"quote\"\"d\"\nplain,2\n# hello\n"
	if csv != want {
		t.Fatalf("CSV:\n%q\nwant:\n%q", csv, want)
	}
}

// TestPauseTimesShape: the page trackers stop the application far longer
// per checkpoint than libcrpm does.
func TestPauseTimesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	sc := testScale()
	sc.Ops = 30_000
	tb, err := PauseTimes(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	share := func(sys string) float64 { return cell(t, tb, rowByName(t, tb, sys), 3) }
	if share("Mprotect") <= share("libcrpm-Default") {
		t.Errorf("mprotect pause share %.1f%% should exceed libcrpm %.1f%%",
			share("Mprotect"), share("libcrpm-Default"))
	}
	if share("Soft-dirty bit") <= share("libcrpm-Default") {
		t.Errorf("soft-dirty pause share %.1f%% should exceed libcrpm %.1f%%",
			share("Soft-dirty bit"), share("libcrpm-Default"))
	}
}
