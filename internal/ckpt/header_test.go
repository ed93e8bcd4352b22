package ckpt

import (
	"testing"

	"libcrpm/internal/nvm"
)

// TestCheckHeader: a formatted header passes, and each way a device can be
// wrong for a container is reported in the caller's own words.
func TestCheckHeader(t *testing.T) {
	const magic uint64 = 0x4352504d54455354
	dev := nvm.NewDevice(4096)
	defer dev.Close()
	FormatHeader(dev, magic, 12)
	SetCommitWord(dev, 7)
	if err := CheckHeader(dev, "sys", 4096, magic, "granule count", 12); err != nil {
		t.Fatalf("good header: %v", err)
	}
	if got := CommitWord(dev); got != 7 {
		t.Fatalf("commit word = %d, want 7", got)
	}
	for _, c := range []struct {
		need  int
		magic uint64
		geom  int
		want  string
	}{
		{8192, magic, 12, "sys: device too small"},
		{4096, magic + 1, 12, "sys: bad magic 0x4352504d54455354"},
		{4096, magic, 13, "sys: granule count mismatch: 12 vs 13"},
	} {
		err := CheckHeader(dev, "sys", c.need, c.magic, "granule count", c.geom)
		if err == nil || err.Error() != c.want {
			t.Errorf("CheckHeader(need %d, magic %#x, geom %d) = %v, want %q", c.need, c.magic, c.geom, err, c.want)
		}
	}
}
