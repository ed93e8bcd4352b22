package core

import (
	"math/rand"
	"testing"

	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

// FuzzOpenCorruptImage flips bits in a valid container image and verifies
// that opening and recovering never panics: corrupted metadata must either
// be rejected with an error or recovered past defensively. Real NVM suffers
// bit rot; the library must not crash the host process on it.
func FuzzOpenCorruptImage(f *testing.F) {
	opts := Options{
		Region: region.Config{HeapSize: 8 * 4096, SegmentSize: 4096, BlockSize: 256, BackupRatio: 1},
	}
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		f.Fatal(err)
	}
	// Build a committed image once.
	base := func() []byte {
		dev := nvm.NewDevice(l.DeviceSize())
		c, err := NewContainer(dev, opts)
		if err != nil {
			f.Fatal(err)
		}
		for e := 0; e < 3; e++ {
			for i := 0; i < 20; i++ {
				writeU64(c, (e*700+i*256)%(c.Size()-8), uint64(e*100+i))
			}
			if err := c.Checkpoint(); err != nil {
				f.Fatal(err)
			}
		}
		return dev.MediaSnapshot()
	}()

	f.Add(uint32(0), byte(0xff))
	f.Add(uint32(40), byte(0x01))
	f.Add(uint32(100), byte(0x80))
	f.Fuzz(func(t *testing.T, pos uint32, mask byte) {
		img := make([]byte, len(base))
		copy(img, base)
		img[int(pos)%len(img)] ^= mask

		dev := nvm.NewDevice(len(img))
		defer dev.Close()
		dev.StoreBulk(0, img)
		dev.CrashPersistAll() // make the mutated image the durable state

		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("corrupt image (pos %d mask %#x) panicked: %v", pos, mask, r)
			}
		}()
		c, err := OpenContainer(dev, opts)
		if err != nil {
			return // rejection is fine
		}
		// Opened containers must stay operational.
		writeU64(c, 0, 1)
		if err := c.Checkpoint(); err != nil {
			t.Fatalf("checkpoint after corrupt open: %v", err)
		}
		_ = rand.Int
	})
}
