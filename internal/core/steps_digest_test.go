package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
)

// digestStep is one action of a step-digest script.
type digestStep func(c *Container)

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// cutStyle is how a digest script ends an epoch.
type cutStyle int

const (
	cutMono  cutStyle = iota // Checkpoint
	cutPipe                  // CheckpointBegin, quanta of 512 B, Commit, replay quanta, Finish
	cutDefer                 // Checkpoint, then the next epoch's copy-on-write deferred and retired in gaps
)

// digestScript builds a seeded script of cuts epochs over a 16-segment heap.
// Each epoch stores into the segments window(cut) names — single words, the
// same word again (the write hook's memo), several blocks at once, and now
// and then across a segment boundary inside the window — and ends as
// style(cut) says: in a monolithic checkpoint; in the incremental pipeline
// driven as a serving loop drives it, with stores landing between the quanta
// before the commit (flush-before-write, images aside) and after it (the
// replay's copies, flips and lifts); or in a monolithic checkpoint behind
// which the copy-on-write is deferred — the first time drained on the spot,
// as ahead of a populate epoch, afterwards retired in gaps of random length
// between the next epoch's stores.
func digestScript(rng *rand.Rand, cuts int, window func(cut int) (lo, n int), style func(cut int) cutStyle) []digestStep {
	var script []digestStep
	add := func(st digestStep) { script = append(script, st) }
	replaying, drained := false, false
	store := func(cut int) {
		lo, n := window(cut)
		i := rng.Intn(n)
		seg := (lo + i) % 16
		off, val := seg*4096+rng.Intn(4096/8)*8, rng.Uint64()
		add(func(c *Container) { writeU64(c, off, val) })
		switch r := rng.Intn(6); {
		case r == 0:
			add(func(c *Container) { writeU64(c, off, ^val) })
		case r == 1:
			wide := make([]byte, 200+rng.Intn(600))
			rng.Read(wide)
			woff := seg*4096 + rng.Intn(4096-len(wide))
			add(func(c *Container) { c.OnWrite(woff, len(wide)); c.Write(woff, wide) })
		case r == 2 && i+1 < n && seg+1 < 16:
			cross := make([]byte, 600)
			rng.Read(cross)
			add(func(c *Container) { c.OnWrite((seg+1)*4096-300, 600); c.Write((seg+1)*4096-300, cross) })
		}
		if replaying && rng.Intn(2) == 0 {
			gap := []int64{300_000, 700_000, 5_000_000}[rng.Intn(3)]
			add(func(c *Container) { c.StepCoW(gap) })
		}
	}
	step := func(c *Container) { _, err := c.CheckpointStep(512); must(err) }
	for cut := 0; cut < cuts; cut++ {
		for i := 0; i < 10; i++ {
			store(cut)
		}
		replaying = false
		switch style(cut) {
		case cutMono:
			add(func(c *Container) { must(c.Checkpoint()) })
		case cutDefer:
			add(func(c *Container) { must(c.Checkpoint()) })
			add(func(c *Container) { c.DeferCoW(foreverPS) })
			if replaying = drained; !drained {
				add(func(c *Container) { c.StepCoW(0) })
				drained = true
			}
		case cutPipe:
			add(func(c *Container) { must(c.CheckpointBegin()) })
			for i := 0; i < 4; i++ {
				store(cut + 1)
				store(cut + 1)
				add(step)
			}
			add(func(c *Container) { must(c.CheckpointCommit()) })
			for i := 0; i < 3; i++ {
				store(cut + 1)
				add(step)
			}
			add(func(c *Container) { must(c.CheckpointFinish()) })
		}
	}
	// Leave an open epoch behind, so the two crash images differ.
	for i := 0; i < 6; i++ {
		store(cuts)
	}
	return script
}

// wtDigestScript is the write-through crash property's script — scopes,
// pre-flushes of random budgets, deferred copy-on-write retired in gaps of
// random length, monolithic and incremental checkpoints that find a replay
// unfinished — one digest step per script step.
func wtDigestScript(rng *rand.Rand, heapSize int) []digestStep {
	var script []digestStep
	for _, st := range buildWTScript(rng, heapSize, 9) {
		one := []wtStep{st}
		script = append(script, func(c *Container) { runWTScript(c, one, map[uint64][]byte{}, false) })
	}
	return script
}

// digestPath is one way of taking cuts through the protocol.
type digestPath struct {
	name   string
	opts   func() Options
	script func(rng *rand.Rand, o Options) []digestStep
}

func digestPaths() []digestPath {
	whole := func(int) (int, int) { return 0, 16 }
	// A window of two segments that moves on by one or two every epoch: with
	// a quarter of the segments backed, every epoch's pairings are stolen from
	// an earlier one's — redundant pairs in lazy default mode, backups that
	// hold the committed state (evacuated first) with eager copy-on-write and
	// in buffered mode. Two, because a cut in flight reserves its own two.
	rotating := func(cut int) (int, int) { return cut * 3 / 2, 2 }
	mono := func(int) cutStyle { return cutMono }
	pipe := func(int) cutStyle { return cutPipe }
	mixed := func(cut int) cutStyle { return cutStyle(cut % 2) }
	plain := func(cuts int, window func(int) (int, int), style func(int) cutStyle) func(*rand.Rand, Options) []digestStep {
		return func(rng *rand.Rand, _ Options) []digestStep { return digestScript(rng, cuts, window, style) }
	}
	with := func(mode Mode, mut func(o *Options)) func() Options {
		return func() Options {
			o := incOpts(mode)
			if mut != nil {
				mut(&o)
			}
			return o
		}
	}
	eager := func(o *Options) { o.EagerCoWSegments = 64 }
	quarter := func(o *Options) { o.Region.BackupRatio = 0.25 }
	return []digestPath{
		{"default-lazy", with(ModeDefault, nil), plain(8, whole, mono)},
		{"default-eager", with(ModeDefault, eager), plain(8, whole, mono)},
		// Cuts on both sides of the LLC threshold, monolithic and pipelined.
		{"default-wbinvd", with(ModeDefault, func(o *Options) { o.LLCSize = 6 * 256 }), plain(8, func(cut int) (int, int) { return 0, 1 + cut%4*5 }, mixed)},
		{"buffered", with(ModeBuffered, nil), plain(8, whole, mono)},
		{"inc-default", with(ModeDefault, nil), plain(8, whole, pipe)},
		{"inc-buffered", with(ModeBuffered, nil), plain(8, whole, pipe)},
		{"steal-lazy", with(ModeDefault, quarter), plain(24, rotating, mixed)},
		// The first three epochs populate five fresh segments each: one more
		// than eager copy-on-write finds a backup for.
		{"steal-eager", with(ModeDefault, func(o *Options) { eager(o); quarter(o) }), plain(24, func(cut int) (int, int) {
			if cut < 3 {
				return cut * 5, 5
			}
			return rotating(cut)
		}, func(cut int) cutStyle {
			if cut < 3 {
				return cutMono
			}
			return mixed(cut)
		})},
		{"steal-buffered", with(ModeBuffered, quarter), plain(24, rotating, mixed)},
		// Deferred copies competing for backups with the stores they sit
		// behind: dropped where an inline copy took the last free one, stolen
		// from where a store staged in the quarantine needs one.
		{"steal-defer", with(ModeDefault, quarter), plain(24, rotating, func(cut int) cutStyle { return cutStyle(2 - cut%3) })},
		{"wt-defer", with(ModeDefault, nil), func(rng *rand.Rand, o Options) []digestStep { return wtDigestScript(rng, o.Region.HeapSize) }},
	}
}

// stepHasher folds what a step cost into a running hash.
type stepHasher struct {
	h hash.Hash
}

func (sh stepHasher) put(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		sh.h.Write(b[:])
	}
}

func (sh stepHasher) observe(dev *nvm.Device, c *Container) {
	clock := dev.Clock()
	sh.put(dev.PrimitiveCount(), clock.NowPS())
	for cat := nvm.Category(0); cat < nvm.NumCategories; cat++ {
		sh.put(clock.CategoryPS(cat))
	}
	dev.Stats().Visit(func(_ string, v int64) { sh.put(v) })
	m := c.Metrics()
	sh.put(m.Epochs, m.CheckpointBytes, m.TraceEvents, m.RecoveryBytes, m.FlushedLines, m.MetadataBytes)
	sh.put(c.CoWBytes(), int64(c.PendingCutBytes()), int64(c.CommittedEpoch()))
}

// runStepDigest runs one path's script and returns the hash of every step's
// costs and of the trace, and the CRC of the media the crash image leaves.
func runStepDigest(t *testing.T, p digestPath, checksums bool, crash nvm.CrashPolicy) (steps int, costs string, media uint32) {
	t.Helper()
	opts := p.opts()
	opts.Region.Checksums = checksums
	dev, c := newTestContainer(t, opts)
	defer dev.Close()
	rec := obs.NewRecorder(dev.Clock())
	c.SetTrace(rec)
	script := p.script(rand.New(rand.NewSource(18)), opts)
	sh := stepHasher{sha256.New()}
	for _, st := range script {
		st(c)
		sh.observe(dev, c)
	}
	// The trace the run left: every span where it was.
	for _, sp := range rec.Spans() {
		io.WriteString(sh.h, sp.Name)
		sh.put(sp.Start, sp.End, int64(sp.Depth))
	}
	dev.CrashWith(crash)
	return len(script), fmt.Sprintf("%x", sh.h.Sum(nil)), crc32.ChecksumIEEE(dev.MediaSnapshot())
}

// TestStepDigest pins, per way of taking a cut, what every step of a seeded
// script costs — device primitives, simulated time by category, device
// counters, backend metrics, copy-on-write bytes — the spans it traced, and
// the media both crash images leave behind. The golden figures pin costs only
// on the paths the figures take (eager default mode, no stealing); this pins
// the rest, so a refactor of the protocol's steps must leave every row untouched. A row that
// is meant to move is regenerated with UPDATE_DIGESTS=1 and the reason goes
// into CHANGES.md.
func TestStepDigest(t *testing.T) {
	path := filepath.Join("testdata", "step_digests.txt")
	var b strings.Builder
	for _, p := range digestPaths() {
		for _, checksums := range []bool{false, true} {
			name := p.name
			if checksums {
				name += "+sums"
			}
			steps, costs, persisted := runStepDigest(t, p, checksums, nvm.PersistAll)
			steps2, costs2, dropped := runStepDigest(t, p, checksums, nvm.DropAll)
			if steps != steps2 || costs != costs2 {
				t.Fatalf("%s: two runs of one seeded script differ", name)
			}
			if persisted == dropped && p.opts().Mode == ModeDefault {
				// (Buffered mode's open epoch is DRAM: the images agree.)
				t.Errorf("%s: both crash images leave the same media: the script ends on a cut", name)
			}
			fmt.Fprintf(&b, "%s %d %s %08x %08x\n", name, steps, costs, persisted, dropped)
		}
	}
	if os.Getenv("UPDATE_DIGESTS") != "" {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digests (run with UPDATE_DIGESTS=1 to create): %v", err)
	}
	got, want := strings.Split(b.String(), "\n"), strings.Split(string(data), "\n")
	if len(got) != len(want) {
		t.Errorf("%s holds %d rows, the table %d", path, len(want)-1, len(got)-1)
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("row moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
