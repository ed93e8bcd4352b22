package core

import (
	"bytes"
	"errors"
	"testing"

	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

// committedContainer builds a checksummed container, commits two epochs of
// state, and simulates a clean power-down. Returns the device, options, and
// the committed heap bytes.
func committedContainer(t *testing.T, mode Mode) (*nvm.Device, Options, []byte) {
	t.Helper()
	opts := smallOpts(mode)
	opts.Region.Checksums = true
	dev, c := newTestContainer(t, opts)
	for i := 0; i < 16; i++ {
		writeU64(c, i*4096+8*(i%5), uint64(0xA0A0+i))
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		writeU64(c, i*4096+128, uint64(0xB0B0+i))
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), c.Bytes()...)
	dev.CrashDropAll() // power-down: caches gone, media is the truth
	return dev, opts, want
}

// TestCorruptEveryMetadataLine is the acceptance criterion for the
// corruption-hardened recovery: corrupting any single metadata cache line
// of a committed (sealed) container must either be repaired from the
// redundant copy — recovering the exact committed state — or surface a
// typed error. Never a silent wrong recovery.
func TestCorruptEveryMetadataLine(t *testing.T) {
	for _, mode := range modes() {
		opts := smallOpts(mode)
		opts.Region.Checksums = true
		layout, err := region.NewLayout(opts.Region)
		if err != nil {
			t.Fatal(err)
		}
		metaLines := layout.MainOff(0) / nvm.LineSize
		for line := 0; line < metaLines; line++ {
			dev, opts, want := committedContainer(t, mode)
			dev.CorruptRange(line*nvm.LineSize, nvm.LineSize)
			c, err := OpenContainer(dev, opts)
			if err != nil {
				if !errors.Is(err, ErrCorruptMetadata) {
					t.Fatalf("%v line %d: untyped error %v", mode, line, err)
				}
				continue // detected and refused: acceptable outcome
			}
			if got := c.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%v line %d: silent wrong recovery (heap diverges)", mode, line)
			}
			if c.CommittedEpoch() != 2 {
				t.Fatalf("%v line %d: recovered to epoch %d, want 2", mode, line, c.CommittedEpoch())
			}
			if r := region.Check(dev, c.Layout(), false); !r.OK() {
				t.Fatalf("%v line %d: container inconsistent after repair:\n%s", mode, line, r)
			}
		}
	}
}

// TestCheckReportsBeforeOpenRepairs pins the fsck-style path crpmck takes:
// region.Check reports the corruption and leaves the media untouched for
// offline inspection, and the same image then opens repaired, to the exact
// committed state.
func TestCheckReportsBeforeOpenRepairs(t *testing.T) {
	dev, opts, want := committedContainer(t, ModeDefault)
	dev.CorruptRange(48, 8) // inside the segment-state arrays
	before := append([]byte(nil), dev.MediaSnapshot()...)
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		t.Fatal(err)
	}
	if r := region.Check(dev, l, false); r.OK() {
		t.Fatal("check passed a corrupt image")
	}
	if !bytes.Equal(before, dev.MediaSnapshot()) {
		t.Fatal("check modified the media")
	}
	c, err := OpenContainer(dev, opts)
	if err != nil {
		t.Fatalf("auto-repair open failed: %v", err)
	}
	if !bytes.Equal(c.Bytes(), want) {
		t.Fatal("repaired heap diverges from the committed state")
	}
}

// TestUnrecoverableCorruptionIsTyped destroys both redundant copies (two
// faults): Open must refuse with ErrUnrecoverable, which also matches
// ErrCorruptMetadata.
func TestUnrecoverableCorruptionIsTyped(t *testing.T) {
	dev, opts, _ := committedContainer(t, ModeDefault)
	// Corrupt the header line AND everything through the shadow copy: the
	// redundant copies cannot repair each other any more.
	dev.CorruptRange(0, 7*nvm.LineSize)
	_, err := OpenContainer(dev, opts)
	if err == nil {
		t.Fatal("open of doubly-corrupt container succeeded")
	}
	if !errors.Is(err, ErrUnrecoverable) || !errors.Is(err, ErrCorruptMetadata) {
		t.Fatalf("err = %v, want ErrUnrecoverable (and ErrCorruptMetadata)", err)
	}
}
