// Package store is the durability layer of the middleware: a segmented,
// append-only, CRC32C-framed write-ahead log with batched group commit,
// crash recovery and retention, plus an audit-specific adapter that keeps
// the tamper-evident hash chain contiguous across the memory/disk
// boundary.
//
// The paper's compliance argument rests on audit — regulators must be able
// to reconstruct who touched whose data — so the evidence cannot live only
// in process memory. The WAL gives every in-memory tier (the audit log,
// gateway store-and-forward buffers) a disk tier to offload to:
//
//   - WAL: seq-numbered, timestamped, CRC-framed records in rotating
//     segment files. Append enqueues and returns; a committer goroutine
//     writes each batch with a single fsync (group commit), so enforcement
//     hot paths never block on disk. Sync waits on a watermark, mirroring
//     audit.Log's AppendAsync/Flush design. Recovery replays segments,
//     truncates a torn tail, and resumes the sequence.
//   - AuditStore: a WAL of audit.Record values in the binary wire form
//     (audit.AppendRecordBinary). It verifies the hash chain on open,
//     primes a fresh audit.Log with the recovered chain head
//     (Log.Restore), persists every appended record via a log sink, and
//     lets Offload prune the in-memory log once records are durable —
//     tiered offload of exactly the segments audit.Log.Prune returns.
//   - Journal helpers used by the gateway to persist store-and-forward
//     buffers across restarts.
//
// Recovery, reads and redaction all stream: one frame walker
// (walkSegment) is the only code that reads a segment file, through one
// pooled 1 MiB buffer, CRC-checking every frame. The callers differ only
// in policy: recovery enforces the frame seq and truncates a torn tail of
// the last segment (refusing one anywhere else), ReadSeq stops silently
// at a torn frame and at the end of its range, and redaction refuses any
// bad frame and writes the rewritten segment through one
// buffered handle. No caller holds a whole segment in memory.
//
// Recovery re-hashes and re-links every persisted record, working on the
// bytes it reads: each record is proven from its wire form by
// audit.VerifyRecordBinary, with labels checked by intern-table lookup
// and no audit.Record built. What that cannot prove is decoded and
// checked in full against the one chain rule (audit.VerifyRecord), and
// only that path decides a refusal, so verdicts are those a full decode
// would give.
package store
