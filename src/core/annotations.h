#pragma once

/// Source-level annotations consumed by ntr_analyze's interprocedural
/// passes. They expand to nothing: the *token* is the contract, and the
/// analyzer reads it straight off the parse.
///
/// NTR_VALIDATED marks a value -- or a whole function -- as having been
/// range-checked against untrusted input. The wire-taint pass treats
/// anything that crosses the network/file/environment boundary (socket
/// reads, decoded frame lengths, parsed JSON values, net-file fields,
/// getenv) as tainted until a sanitizer intervenes; this annotation is
/// the explicit third sanitizer, for validation the pass's heuristics
/// cannot see (a table lookup, a checksum, validation performed by a
/// caller the summary machinery cannot prove).
///
/// Placement, either of:
///   * in a declaration's type position, marking that one value:
///       NTR_VALIDATED std::size_t n = decode_count(frame);
///   * directly before a function's return type, marking
///     the function as a validation boundary: its return value is
///     trusted, and taint passed into it is not tracked through its
///     body (the function owns its own checking).
/// Use it sparingly -- every use is an unchecked claim; prefer the
/// checked-Status idiom or an explicit clamp where possible. See
/// docs/static_analysis.md ("Taint analysis").
#define NTR_VALIDATED

/// NTR_GUARDED_BY(m) marks a data member as protected by the mutex
/// member (or global) `m`: every read or write of the member must happen
/// while `m` is held, either lexically (a guard on `m` in scope at the
/// access) or via the caller (the lock-discipline pass propagates
/// held-at-entry sets over the call graph, so a private helper that is
/// only ever called under the lock needs no annotation gymnastics). The
/// `unguarded-member-access` pass enforces this; deliberate exceptions
/// (single-threaded setup before any thread exists) carry an
/// `ntr-unguarded-member-access(<why>)` justification.
///
/// Placement: between the member's name and the ';', e.g.
///   std::size_t total_ NTR_GUARDED_BY(mutex_) = 0;
/// The argument is a mutex expression resolved like any other mutex
/// identity: a member name of the same class, `impl_->mutex`, or a
/// namespace-scope mutex. Atomics need no annotation -- they are their
/// own discipline. See docs/static_analysis.md ("Lock discipline").
#define NTR_GUARDED_BY(m)
