package ckpt

import "testing"

func TestMetricsSub(t *testing.T) {
	a := Metrics{Epochs: 10, CheckpointBytes: 1000, TraceEvents: 50, RecoveryBytes: 7, MetadataBytes: 64}
	b := Metrics{Epochs: 4, CheckpointBytes: 300, TraceEvents: 20, RecoveryBytes: 2, MetadataBytes: 64}
	d := a.Sub(b)
	if d.Epochs != 6 || d.CheckpointBytes != 700 || d.TraceEvents != 30 || d.RecoveryBytes != 5 {
		t.Fatalf("Sub = %+v", d)
	}
	// Metadata is a footprint, not a counter: Sub keeps the absolute value.
	if d.MetadataBytes != 64 {
		t.Fatalf("MetadataBytes = %d, want 64", d.MetadataBytes)
	}
}
