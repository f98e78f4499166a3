// Admission-lifecycle event vocabulary (observability layer).
//
// Every state transition a progress period can take through the scheduler —
// begin, admit, block, wake, force-admit, pool-disable, cancel, end — is
// recordable as one fixed-size typed event. The §5 evaluation figures all
// derive from *when* these transitions happened; aggregate counters alone
// (MonitorStats) cannot localize bugs like a leaked period or a stranded
// pool. Events carry enough payload to reconstruct the full lifecycle of
// each period and to reconcile against the aggregate stats.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/types.hpp"
#include "sim/ids.hpp"

namespace rda::obs {

/// One admission-lifecycle transition.
enum class EventKind : std::uint8_t {
  kBegin,        ///< pp_begin entered the scheduler
  kAdmit,        ///< admitted immediately (predicate passed on begin)
  kBlock,        ///< denied; parked on the resource waitlist
  kWake,         ///< admitted from the waitlist and woken
  kForceAdmit,   ///< liveness override (demand can never fit; resource free)
  kPoolDisable,  ///< §3.4: one denied member paused the whole pool
  kCancel,       ///< waitlisted request withdrawn (timeout / try_begin)
  kEnd,          ///< pp_end released the period's load
  kReclaim,      ///< orphaned period reaped; its load/slot returned
  kDemandClamp,  ///< watchdog rung 1: infeasible demand clamped to capacity
  kNodeDown,     ///< service node went down; its parked work is re-queued
  kNodeUp,       ///< service node rejoined the routing set
  kEnqueue,      ///< service front end accepted a submission into the queue
  kBatchDrain,   ///< drain loop pulled a batch; demand = batch size
  kSteal,        ///< idle service node took a tenant batch; demand = its size
  kShed,         ///< overload ladder rung 3: submission shed before admission
  kMailbox,      ///< requeued submission posted to a drain shard's mailbox
  kPenalty,      ///< tenant ledger moved a tenant's penalty rung; demand = rung
  kCreditGrant,  ///< unused fair share banked as credits; demand = units
  kCreditSpend,  ///< burst over fair share paid in credits; demand = units
};

inline constexpr std::size_t kNumEventKinds = 20;

constexpr std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kBegin: return "begin";
    case EventKind::kAdmit: return "admit";
    case EventKind::kBlock: return "block";
    case EventKind::kWake: return "wake";
    case EventKind::kForceAdmit: return "force_admit";
    case EventKind::kPoolDisable: return "pool_disable";
    case EventKind::kCancel: return "cancel";
    case EventKind::kEnd: return "end";
    case EventKind::kReclaim: return "reclaim";
    case EventKind::kDemandClamp: return "demand_clamp";
    case EventKind::kNodeDown: return "node_down";
    case EventKind::kNodeUp: return "node_up";
    case EventKind::kEnqueue: return "enqueue";
    case EventKind::kBatchDrain: return "batch_drain";
    case EventKind::kSteal: return "steal";
    case EventKind::kShed: return "shed";
    case EventKind::kMailbox: return "mailbox";
    case EventKind::kPenalty: return "penalty";
    case EventKind::kCreditGrant: return "credit_grant";
    case EventKind::kCreditSpend: return "credit_spend";
  }
  return "?";
}

/// Fixed-size event record. Labels are truncated to fit so a ring of these
/// never allocates on the hot path.
struct Event {
  double time = 0.0;  ///< seconds (sim time or gate-epoch time)
  EventKind kind = EventKind::kBegin;
  ResourceKind resource = ResourceKind::kLLC;
  sim::ThreadId thread = sim::kInvalidThread;
  sim::ProcessId process = sim::kInvalidProcess;
  core::PeriodId period = core::kInvalidPeriod;
  double demand = 0.0;  ///< primary-resource demand (bytes or bytes/second)
  char label[24] = {};  ///< truncated period label ("dgemm", "wnsq.PP1", ...)

  void set_label(std::string_view text) {
    const std::size_t n = std::min(text.size(), sizeof(label) - 1);
    std::memcpy(label, text.data(), n);
    label[n] = '\0';
  }
};

}  // namespace rda::obs
