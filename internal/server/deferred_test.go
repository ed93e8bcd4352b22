package server

import (
	"reflect"
	"testing"
	"time"

	"libcrpm/internal/obs"
)

// trackCounter and trackSamples read one counter's value and one histogram's
// sample count off a track (0 if never recorded).
func trackCounter(tr obs.Track, name string) int64 {
	for _, c := range tr.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func trackSamples(tr obs.Track, name string) int64 {
	for _, h := range tr.Histograms {
		if h.Name == name {
			return h.N()
		}
	}
	return 0
}

// TestDeferredCoW is the tentpole's contract under an arrival schedule with
// stop-the-world cuts and idle time to spare. Deferring each epoch's
// copy-on-write behind the write barrier and retiring it in the gaps changes
// when the copies are made and nothing else: the same keys end up on the same
// shards after the same cuts and the same ring flips, the open-loop median
// does not move — and the tail, which was the hot segments' copies run back to
// back in front of the requests right after every cut, is gone: no request
// pays for a copy after the populate cut, and what a checkpoint had to finish
// is nothing.
func TestDeferredCoW(t *testing.T) {
	run := func(off bool) (*Service, *Result) {
		cfg := openMigCfg()
		cfg.Migrations = []MigrateSpec{
			{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
			{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 9},
		}
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc.noDeferCoW = off
		res, err := svc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("noDeferCoW=%v: violations: %v", off, res.Violations)
		}
		return svc, res
	}
	on, ron := run(false)
	off, roff := run(true)
	if ron.Cuts != roff.Cuts || len(on.shards) != len(off.shards) {
		t.Fatalf("%d cuts on %d shards with deferral, %d on %d without", ron.Cuts, len(on.shards), roff.Cuts, len(off.shards))
	}
	for i := range on.shards {
		// Run verified each KV against its shadow: comparing shadows compares
		// KV contents.
		if !reflect.DeepEqual(on.shards[i].shadow.live, off.shards[i].shadow.live) {
			t.Errorf("shard %d ends with different keys with and without deferral", i)
		}
		if !on.shards[i].retired && !reflect.DeepEqual(on.shards[i].ring.Table(), off.shards[i].ring.Table()) {
			t.Errorf("shard %d ends on a different ring", i)
		}
		tr := track(t, ron, i)
		if n := countSpans(t, ron, i, "cow"); n != 0 {
			t.Errorf("shard %d: %d inline copy-on-write spans with deferral on", i, n)
		}
		if n := countSpans(t, ron, i, "ckpt-replay"); n == 0 {
			t.Errorf("shard %d: no replay quantum in the gaps", i)
		}
		if trackCounter(tr, "ckpt/deferred_cow_bytes") == 0 || trackSamples(tr, "ckpt/deferred") == 0 {
			t.Errorf("shard %d: no deferral on record (%d bytes scheduled, %d gate samples)", i,
				trackCounter(tr, "ckpt/deferred_cow_bytes"), trackSamples(tr, "ckpt/deferred"))
		}
		if n := trackCounter(tr, "ckpt/deferred_drained_bytes"); n != 0 {
			t.Errorf("shard %d: checkpoints had to finish %d bytes of deferred copies: the gate guessed wrong", i, n)
		}
		ctl := track(t, roff, i)
		if countSpans(t, roff, i, "cow") == 0 || countSpans(t, roff, i, "ckpt-replay") != 0 || trackSamples(ctl, "ckpt/deferred") != 0 {
			t.Errorf("shard %d: the control run deferred", i)
		}
	}
	for i := range ron.Migrations {
		if ron.Migrations[i].FlipEpoch != roff.Migrations[i].FlipEpoch || ron.Migrations[i].MovedKeys != roff.Migrations[i].MovedKeys {
			t.Errorf("migration %d: %+v with deferral, %+v without", i, ron.Migrations[i], roff.Migrations[i])
		}
	}
	mon, moff := ron.Measure, roff.Measure
	t.Logf("open p50/p99/p999/max %d/%d/%d/%d ps with deferral, %d/%d/%d/%d without; service max %d / %d",
		mon.OpenAll.P50PS, mon.OpenAll.P99PS, mon.OpenAll.P999PS, mon.OpenAll.MaxPS,
		moff.OpenAll.P50PS, moff.OpenAll.P99PS, moff.OpenAll.P999PS, moff.OpenAll.MaxPS,
		mon.ServiceAll.MaxPS, moff.ServiceAll.MaxPS)
	if mon.OpenAll.P50PS != moff.OpenAll.P50PS {
		t.Errorf("open p50 %d ps with deferral, %d without", mon.OpenAll.P50PS, moff.OpenAll.P50PS)
	}
	if 50*mon.OpenAll.P99PS > moff.OpenAll.P99PS {
		t.Errorf("open p99 %d ps with deferral, %d without: not 50x lower", mon.OpenAll.P99PS, moff.OpenAll.P99PS)
	}
	if mon.OpenAll.P999PS > moff.OpenAll.P999PS || mon.OpenAll.MaxPS > moff.OpenAll.MaxPS {
		t.Errorf("the open tail rose: p999 %d -> %d ps, max %d -> %d", moff.OpenAll.P999PS, mon.OpenAll.P999PS, moff.OpenAll.MaxPS, mon.OpenAll.MaxPS)
	}
	// No request pays for a copy any more: the longest is a store into a
	// quarantined block, an aside image over the plain one.
	if mon.ServiceAll.MaxPS > 2_000_000 {
		t.Errorf("service max %d ps with deferral on: some request still pays a copy", mon.ServiceAll.MaxPS)
	}
}

// TestIdleRankDrainsCutQuanta: a rank with no arrivals has no gaps between
// arrivals, only the batch window itself — and must spend it like one. Under
// the incremental pipeline a split's destination holds, before its flip, a
// cut set the size of the whole install and not one request; left to one
// quantum per batch boundary it drains a few kilobytes per batch while every
// rank waits for it at the cut's allreduce, and the run takes a handful of
// cuts where it should take hundreds.
func TestIdleRankDrainsCutQuanta(t *testing.T) {
	cfg := openMigCfg()
	cfg.Trace = false
	cfg.Ops, cfg.BatchOps = 200_000, 512
	cfg.Policy = NewPausePolicy(2 * time.Microsecond)
	cfg.Migrations = []MigrateSpec{
		{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 20},
	}
	res := mustRun(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Migrations) != 2 {
		t.Fatalf("migrations: %+v", res.Migrations)
	}
	t.Logf("%d cuts, %d + %d catch-up ops", res.Cuts, res.Migrations[0].CatchupOps, res.Migrations[1].CatchupOps)
	if res.Cuts < 100 {
		t.Fatalf("%d cuts in %d ops under pause:2us with a split in flight: a traffic-less rank is holding every cut up", res.Cuts, cfg.Ops)
	}
}
