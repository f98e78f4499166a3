// Event/stats reconciliation.
//
// Replays a recorded event stream through the period-lifecycle state
// machine and cross-checks the per-kind event counts against the monitor's
// aggregate MonitorStats. The two are maintained at the same sites in
// ProgressMonitor, so any disagreement means events were lost (ring
// wrap-around), double-emitted, or a lifecycle transition fired from an
// illegal state — exactly the class of bug (nested begins, stranded
// cancels) this layer exists to surface.
//
// Checked invariants:
//   * count(kind) == the matching MonitorStats field, for every kind;
//   * begins == immediate admissions + blocks + begin-path force-admits;
//   * per period: begin first and only once; admit/block only while
//     pending; wake/cancel only while blocked; end only while admitted.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/progress_monitor.hpp"
#include "obs/event.hpp"
#include "obs/histogram.hpp"
#include "obs/summary.hpp"

namespace rda::obs {

/// One tenant's slice of the service ledger (reconcile_service): how many
/// of the stream's core begins, core ends, and queue sheds carried this
/// tenant id (Event::process). Rows are sorted by tenant and must sum to
/// the stream totals — a begin or shed attributed to no tenant row means
/// identity was lost somewhere between arrival and the core.
struct TenantLedgerRow {
  std::uint64_t tenant = 0;
  std::uint64_t begins = 0;
  std::uint64_t ends = 0;
  std::uint64_t sheds = 0;
};

struct ReconcileReport {
  bool ok = true;
  /// Empty when ok; otherwise newline-joined mismatch descriptions.
  std::string message;

  std::uint64_t begin_forced = 0;    ///< force-admits on the begin path
  std::uint64_t still_blocked = 0;   ///< periods blocked at capture end
  std::uint64_t still_admitted = 0;  ///< periods admitted but not yet ended

  /// Per-tenant begins/ends/sheds (populated by reconcile_service only;
  /// sorted by tenant id, rows sum to the stream totals).
  std::vector<TenantLedgerRow> tenants;
};

/// Requires a complete capture (EventRing::dropped() == 0) — a lossy ring
/// cannot reconcile and the counts will (correctly) disagree.
ReconcileReport reconcile(std::span<const Event> events,
                          const core::MonitorStats& stats);

/// The gate-side wait counters to reconcile against the event stream.
/// Plain numbers rather than rt::GateStats — obs must not depend on the
/// runtime layer (the runtime already depends on obs for its trace sink).
struct WaitStatsCheck {
  std::uint64_t waits = 0;  ///< rt::GateStats::waits (one per LOGICAL wait)
  /// rt::GateStats::no_sleep_blocks — periods that visited the waitlist but
  /// were admitted on the in-core second look before their caller slept.
  std::uint64_t no_sleep_blocks = 0;
  /// rt::GateStats::spun_waits — waits settled during the spin, before
  /// their caller parked (a subset of waits).
  std::uint64_t spun_waits = 0;
  double total_wait_seconds = 0.0;  ///< rt::GateStats::total_wait_seconds
  /// Per-wait tolerance between the gate's wall-clock wait accounting and
  /// the event-timestamp-derived total. The gate times mutex reacquisition
  /// and scheduler latency that the monitor's block→wake interval cannot
  /// see, so the two legitimately differ by OS-noise amounts.
  double slack_seconds = 0.05;
};

/// The service front end's queue counters to reconcile against the event
/// stream. Plain numbers for the same layering reason as WaitStatsCheck.
struct ServiceStatsCheck {
  std::uint64_t enqueued = 0;      ///< submissions accepted into the queue
  std::uint64_t drains = 0;        ///< batch-drain passes
  std::uint64_t steals = 0;        ///< whole-tenant-batch steals
  std::uint64_t stolen = 0;        ///< submissions inside stolen batches
  std::uint64_t reroutes = 0;      ///< submissions re-queued by a node death
  std::uint64_t mailboxed = 0;     ///< requeues posted to shard mailboxes
  std::uint64_t shed = 0;          ///< submissions shed by the overload ladder
  std::uint64_t still_queued = 0;  ///< left in the queue at capture end
};

/// Extends the fault-matrix ledger invariant
///   begins == ends + cancels + reclaims
/// down to the service queue:
///   * count(kind) == the matching ServiceStatsCheck field, for enqueue /
///     batch-drain / steal / shed;
///   * Σ batch-drain sizes (the kBatchDrain event's demand payload)
///     == enqueued - still_queued — the queue loses nothing: every accepted
///     submission is either drained in some batch or still waiting;
///   * drained == begins + sheds — every drained submission either entered
///     the core (exactly one kBegin) or was shed by the overload ladder;
///   * Σ steal sizes (the kSteal event's demand payload) == stolen, and
///     count(kMailbox) == mailboxed == stolen + reroutes — every displaced
///     submission (steal or node-death reroute) took exactly one mailbox
///     hop to its drain shard, and none was invented or dropped in transit.
/// A node dying mid-drain and rejoining must not break any of these: a lost
/// submission shows up as a drain/begin gap, a double-admit as excess begins.
/// Also fills ReconcileReport::tenants with per-tenant begins/ends/sheds
/// rows (keyed by Event::process) and fails unless they sum to the totals.
ReconcileReport reconcile_service(std::span<const Event> events,
                                  const ServiceStatsCheck& service);

/// Cross-checks the wait-latency histogram and the native gate's wait
/// counters against the event stream:
///   * histogram count == block intervals closed by a wake/force/cancel;
///   * histogram total == sum of those event-timestamp intervals (same
///     inputs, so they must agree to rounding);
///   * gate waits <= blocks (a try_begin blocks and withdraws without ever
///     sleeping, so the gate may count fewer sleeps than the monitor
///     counts blocks — never more). A hardened gate that counted every
///     retry SLICE as a wait would trip this on the first multi-slice
///     sleep — the check that pins "one logical wait per admission";
///   * gate waits + no_sleep_blocks + cancel-resolved blocks >= blocks
///     (every block is either slept on, admitted on the second look, or
///     withdrawn — an unaccounted block means lost wait accounting);
///   * gate spun_waits <= waits (a spun wait is a wait that settled before
///     it parked, never an extra one);
///   * |gate total_wait_seconds - event-derived total| within slack.
ReconcileReport reconcile_waits(std::span<const Event> events,
                                const WaitHistogram& histogram,
                                const WaitStatsCheck& gate);

/// Per-resource budget-ledger check over a monitor snapshot (one row per
/// configured kind, from core::AdmissionCore::resource_rows()):
///   * stripe invariant: usage + free − overdraft == bound, for EVERY kind
///     with a finite bound — a corrupted counter on any row (LLC, bandwidth,
///     energy) breaks its own kind's equation, not some aggregate;
///   * overdraft and the oversubscription tally are never negative;
///   * at quiescence (`expect_quiescent`): usage, overdraft, and the
///     oversubscription tally have all returned to zero — forced admissions
///     were fully repaid on every resource, not just the LLC.
ReconcileReport reconcile_resources(std::span<const ResourceRow> resources,
                                    bool expect_quiescent);

}  // namespace rda::obs
