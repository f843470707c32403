#ifndef STPT_FUZZ_TARGETS_H_
#define STPT_FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>

namespace stpt::fuzz {

/// The six structure-aware harnesses, one per byte-eating surface. Each
/// follows the libFuzzer contract: consume arbitrary bytes, return 0, and
/// enforce its surface's invariant — "arbitrary bytes yield a Status error
/// or a valid object, never a crash, hang, or sanitizer report" — by
/// aborting the process on any violation. Every harness is deterministic
/// (no wall clock, no entropy), so corpus replays are bit-reproducible.

/// serve/snapshot.cc: DecodeSnapshot, plus canonical re-encode round-trip
/// on every accepted input.
int FuzzSnapshot(const uint8_t* data, size_t size);

/// serve/wire.cc: the payload codecs (selector byte, including the
/// addressed codecs with their optional trailing trace field and the
/// trace-fetch request) and ReadFrame over a socketpair, with canonical
/// re-encode checks on accepted payloads.
int FuzzWire(const uint8_t* data, size_t size);

/// io/csv.cc: ReadMatrixCsv and ReadDatasetCsv over the same untrusted
/// text, with structural invariant checks on every accepted object.
int FuzzCsv(const uint8_t* data, size_t size);

/// common/flags.cc: FlagSet::Parse over a newline-tokenised argv with one
/// flag of each type plus an ignored prefix.
int FuzzFlags(const uint8_t* data, size_t size);

/// signal/: differential harness — Bluestein Dft vs a naive O(n^2) DFT on
/// arbitrary lengths, inverse round-trip, and HaarForward∘HaarInverse.
int FuzzSignalDiff(const uint8_t* data, size_t size);

/// ingest/: DecodeReadingBatch / DecodeReadingAck with canonical re-encode
/// (selector byte), plus a structure-aware IngestPipeline driver that
/// applies arbitrary batch sequences under a ManualClock and checks ack
/// accounting and bitwise ledger-vs-accountant agreement.
int FuzzIngest(const uint8_t* data, size_t size);

}  // namespace stpt::fuzz

#endif  // STPT_FUZZ_TARGETS_H_
