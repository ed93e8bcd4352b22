// Media-fault surface for the torture sweep: DeadRanges enumerates the
// device ranges whose at-rest content the recovery protocol must never
// depend on. The sweep corrupts them after the crash and before reopen;
// recovery must still land byte-exactly on the committed epoch.
package incll

import (
	"encoding/binary"

	"libcrpm/internal/ckpt"
	"libcrpm/internal/nvm"
)

// Range is a half-open device byte range [Off, Off+Len).
type Range struct{ Off, Len int }

// DeadRanges inspects a (possibly crashed) InCLL device image and returns
// the ranges recovery is insensitive to:
//
//   - the spare tail bytes of every line's meta cache line,
//   - record slots beyond each side-log half's live head,
//   - whole side-log halves owned by epochs outside the recovery window
//     (neither the crashed epoch committed+1 nor committed, which the
//     coordinated one-epoch rollback may still re-arm).
//
// It reads the image directly without charging the simulated clock; it is
// a test-side oracle, not part of the protocol.
func DeadRanges(dev *nvm.Device, heapSize int) ([]Range, error) {
	b, err := layout(heapSize)
	if err != nil {
		return nil, err
	}
	if err := ckpt.CheckHeader(dev, "incll", b.deviceSize(), Magic, "heap size", heapSize); err != nil {
		return nil, err
	}
	w := dev.Working()
	committed := ckpt.CommitWord(dev)
	var out []Range
	for l := 0; l < b.n; l++ {
		out = append(out, Range{b.metaOff(l) + 8 + SlotSize, nvm.LineSize - 8 - SlotSize})
	}
	for h := 0; h < 2; h++ {
		v := binary.LittleEndian.Uint64(w[b.halfWordOff(h):])
		owner, head := uint32(v>>32), int(uint32(v))
		start := b.halfOff(h)
		live := owner == uint32(committed+1) || (committed > 0 && owner == uint32(committed))
		if !live {
			head = 0
		}
		if head > b.sideCap {
			head = b.sideCap
		}
		if n := (b.sideCap - head) * RecordSize; n > 0 {
			out = append(out, Range{start + head*RecordSize, n})
		}
	}
	return out, nil
}
