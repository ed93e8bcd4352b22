// Package nvm provides a simulated byte-addressable non-volatile memory
// device with an explicit volatile cache model, suitable for reproducing
// persistent-memory checkpointing protocols without Optane hardware.
//
// The device exposes the x86-TSO persistency contract used by the libcrpm
// paper (DAC 2022):
//
//   - Stores land in a volatile cache; they reach durable media only after
//     an explicit CLWB (cache-line write back) followed by an SFence, after
//     a WBINVD, or through spontaneous cache eviction, which may happen at
//     any time.
//   - Non-temporal stores (NTStore) bypass the cache but are weakly ordered:
//     they are guaranteed durable only after the next SFence.
//   - Crash discards the volatile cache. Every line that was written but not
//     yet fence-guaranteed is independently either persisted or dropped,
//     modelling arbitrary eviction and in-flight flush order.
//
// The device holds one full-size image, the CPU's view. Only the lines a
// crash could change — dirty ones, ones written to the cache alone, and ones
// flushed since the last fence — keep their media or pre-flush bytes apart,
// in a pool of line-sized slots, and only when those bytes are not all zero,
// so the host memory a device costs follows its cache traffic over written
// media rather than its size. A non-temporal store copies only what it
// changes: the CPU view only in the kilobyte strides whose bytes differ, and
// a line's pre-store media only where that media is not zero and the store
// changes the line or the line diverges. A device also hands out the
// simulated machine's DRAM for a backend's heap-sized volatile image or a
// replica's populate-sized payload (Device.DRAM), mapped like its own memory
// and unmapped with it or, by FreeDRAM, before.
//
// Every primitive advances a deterministic simulated clock whose cost
// constants are calibrated against published DCPMM latencies. Time is
// attributed to a category (execution, memory trace, checkpoint, recovery)
// so experiment harnesses can reproduce the paper's execution-time
// breakdowns. The device also keeps device-level statistics: sfence counts,
// media bytes written at 256-byte granularity (DCPMM internal write
// amplification), page-fault charges, and more.
package nvm
