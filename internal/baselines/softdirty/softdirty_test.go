package softdirty

import (
	"encoding/binary"
	"testing"

	"libcrpm/internal/nvm"
)

func TestWrapperRoundTrip(t *testing.T) {
	b, err := New(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "Soft-dirty bit" {
		t.Fatalf("name %q", b.Name())
	}
	b.OnWrite(0, 8)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], 88)
	b.Write(0, buf[:])
	if got := b.Device().Stats().PageFaults; got != 0 {
		t.Fatalf("faults = %d, want 0 (kernel traces for free)", got)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Collateral marking: one write checkpoints a 4-page group.
	if got := b.Metrics().CheckpointBytes; got != 4*4096 {
		t.Fatalf("checkpoint bytes = %d, want 16384", got)
	}
	b.Device().CrashDropAll()
	b2, err := Open(64*1024, b.Device())
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(b2.Bytes()); got != 88 {
		t.Fatalf("recovered %d", got)
	}
}

// TestOpenBadConfig: Open refuses a heap size New refuses, with New's error.
func TestOpenBadConfig(t *testing.T) {
	_, want := New(-16 * 1024)
	_, err := Open(-16*1024, nvm.NewDevice(1<<20))
	if want == nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("Open error %v, want New's %v", err, want)
	}
}
