#include "obs/reconcile.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>
#include <vector>

namespace rda::obs {

namespace {

/// Lifecycle position of one period during replay.
enum class State : std::uint8_t {
  kPending,   ///< begun, admission not yet decided
  kBlocked,   ///< parked on the waitlist
  kAdmitted,  ///< holding load
  kClosed,    ///< ended or cancelled
};

}  // namespace

ReconcileReport reconcile(std::span<const Event> events,
                          const core::MonitorStats& stats) {
  ReconcileReport report;
  std::vector<std::string> errors;
  const auto fail = [&](const std::string& what) { errors.push_back(what); };

  std::array<std::uint64_t, kNumEventKinds> counts{};
  std::unordered_map<core::PeriodId, State> periods;

  for (const Event& e : events) {
    ++counts[static_cast<std::size_t>(e.kind)];
    if (e.kind == EventKind::kNodeDown || e.kind == EventKind::kNodeUp ||
        e.kind == EventKind::kEnqueue || e.kind == EventKind::kBatchDrain ||
        e.kind == EventKind::kSteal || e.kind == EventKind::kShed ||
        e.kind == EventKind::kMailbox || e.kind == EventKind::kPenalty ||
        e.kind == EventKind::kCreditGrant ||
        e.kind == EventKind::kCreditSpend) {
      // Node-health transitions carry a node id, not a period id; service
      // queue events happen before (or instead of) the core lifecycle;
      // tenant-ledger events (penalty rung moves, credit flow) carry a
      // tenant id. All live outside the per-period machine —
      // reconcile_service covers the queue-side ledger.
      continue;
    }
    const auto it = periods.find(e.period);
    const bool known = it != periods.end();
    std::ostringstream site;
    site << to_string(e.kind) << " of period " << e.period << " at t="
         << e.time;
    switch (e.kind) {
      case EventKind::kBegin:
        if (known) {
          fail(site.str() + ": period id seen before (ids are never reused)");
        } else {
          periods.emplace(e.period, State::kPending);
        }
        break;
      case EventKind::kAdmit:
        if (!known || it->second != State::kPending) {
          fail(site.str() + ": admit without a pending begin");
        } else {
          it->second = State::kAdmitted;
        }
        break;
      case EventKind::kBlock:
        if (!known || it->second != State::kPending) {
          fail(site.str() + ": block without a pending begin");
        } else {
          it->second = State::kBlocked;
        }
        break;
      case EventKind::kForceAdmit:
        if (known && it->second == State::kPending) {
          ++report.begin_forced;
          it->second = State::kAdmitted;
        } else if (known && it->second == State::kBlocked) {
          it->second = State::kAdmitted;  // liveness override; wake follows
        } else {
          fail(site.str() + ": force-admit while neither pending nor blocked");
        }
        break;
      case EventKind::kWake:
        if (known && it->second == State::kBlocked) {
          it->second = State::kAdmitted;
        } else if (known && it->second == State::kAdmitted) {
          // Force-admitted from the waitlist: the wake trails the admit.
        } else {
          fail(site.str() + ": wake of a period that was never blocked");
        }
        break;
      case EventKind::kPoolDisable:
        if (!known || it->second != State::kPending) {
          fail(site.str() + ": pool-disable outside a begin in progress");
        }
        break;
      case EventKind::kCancel:
        if (!known || it->second != State::kBlocked) {
          fail(site.str() + ": cancel of a period that is not waitlisted");
        } else {
          it->second = State::kClosed;
        }
        break;
      case EventKind::kEnd:
        if (!known || it->second != State::kAdmitted) {
          fail(site.str() + ": end of a period that is not admitted");
        } else {
          it->second = State::kClosed;
        }
        break;
      case EventKind::kReclaim:
        // An orphan can be reaped while holding load or while parked.
        if (!known || (it->second != State::kAdmitted &&
                       it->second != State::kBlocked)) {
          fail(site.str() +
               ": reclaim of a period that is neither admitted nor blocked");
        } else {
          it->second = State::kClosed;
        }
        break;
      case EventKind::kDemandClamp:
        // Rung 1 reshapes a waiter in place; the period stays blocked.
        if (!known || it->second != State::kBlocked) {
          fail(site.str() + ": demand-clamp of a period that is not blocked");
        }
        break;
      case EventKind::kNodeDown:
      case EventKind::kNodeUp:
      case EventKind::kEnqueue:
      case EventKind::kBatchDrain:
      case EventKind::kSteal:
      case EventKind::kShed:
      case EventKind::kMailbox:
      case EventKind::kPenalty:
      case EventKind::kCreditGrant:
      case EventKind::kCreditSpend:
        break;  // handled above
    }
  }

  for (const auto& [id, state] : periods) {
    if (state == State::kBlocked) ++report.still_blocked;
    if (state == State::kAdmitted || state == State::kPending) {
      ++report.still_admitted;
    }
  }

  const auto expect = [&](EventKind kind, std::uint64_t stat,
                          const char* name) {
    const std::uint64_t seen = counts[static_cast<std::size_t>(kind)];
    if (seen != stat) {
      std::ostringstream os;
      os << "event count mismatch: " << seen << " " << to_string(kind)
         << " events vs stats." << name << " == " << stat;
      fail(os.str());
    }
  };
  expect(EventKind::kBegin, stats.begins, "begins");
  expect(EventKind::kEnd, stats.ends, "ends");
  expect(EventKind::kAdmit, stats.immediate_admissions,
         "immediate_admissions");
  expect(EventKind::kBlock, stats.blocks, "blocks");
  expect(EventKind::kWake, stats.wakes, "wakes");
  expect(EventKind::kForceAdmit, stats.forced_admissions,
         "forced_admissions");
  expect(EventKind::kPoolDisable, stats.pool_disables, "pool_disables");
  expect(EventKind::kCancel, stats.cancels, "cancels");
  expect(EventKind::kReclaim, stats.reclaims, "reclaims");
  expect(EventKind::kDemandClamp, stats.demand_clamps, "demand_clamps");

  // Every begin resolves exactly one way: admitted now, forced now, or
  // parked. (Waitlist exits — wake/force/cancel — are counted above.)
  const std::uint64_t resolved =
      stats.immediate_admissions + stats.blocks + report.begin_forced;
  if (stats.begins != resolved) {
    std::ostringstream os;
    os << "begins (" << stats.begins << ") != immediate admissions ("
       << stats.immediate_admissions << ") + blocks (" << stats.blocks
       << ") + begin-path force-admits (" << report.begin_forced << ")";
    fail(os.str());
  }

  if (!errors.empty()) {
    report.ok = false;
    std::ostringstream os;
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (i) os << "\n";
      os << errors[i];
    }
    report.message = os.str();
  }
  return report;
}

ReconcileReport reconcile_service(std::span<const Event> events,
                                  const ServiceStatsCheck& service) {
  ReconcileReport report;
  std::vector<std::string> errors;
  const auto fail = [&](const std::string& what) { errors.push_back(what); };

  std::uint64_t enqueues = 0;
  std::uint64_t drains = 0;
  std::uint64_t steals = 0;
  std::uint64_t stolen = 0;  // Σ batch sizes carried by kSteal
  std::uint64_t mailboxed = 0;
  std::uint64_t sheds = 0;
  std::uint64_t begins = 0;
  std::uint64_t ends = 0;
  std::uint64_t drained = 0;  // Σ batch sizes carried by kBatchDrain
  // Per-tenant attribution: service events and the core lifecycle both
  // carry the tenant id in Event::process (ordered map → sorted rows).
  std::map<std::uint64_t, TenantLedgerRow> tenants;
  const auto row = [&](const Event& e) -> TenantLedgerRow& {
    const auto id = static_cast<std::uint64_t>(e.process);
    TenantLedgerRow& r = tenants[id];
    r.tenant = id;
    return r;
  };
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kEnqueue: ++enqueues; break;
      case EventKind::kBatchDrain:
        ++drains;
        drained += static_cast<std::uint64_t>(e.demand);
        break;
      case EventKind::kSteal:
        ++steals;
        stolen += static_cast<std::uint64_t>(e.demand);
        break;
      case EventKind::kMailbox: ++mailboxed; break;
      case EventKind::kShed:
        ++sheds;
        ++row(e).sheds;
        break;
      case EventKind::kBegin:
        ++begins;
        ++row(e).begins;
        break;
      case EventKind::kEnd:
        ++ends;
        ++row(e).ends;
        break;
      default: break;
    }
  }
  report.tenants.reserve(tenants.size());
  TenantLedgerRow sum;
  for (const auto& [id, r] : tenants) {
    report.tenants.push_back(r);
    sum.begins += r.begins;
    sum.ends += r.ends;
    sum.sheds += r.sheds;
  }
  // The rows partition the stream: a begin/end/shed outside every row would
  // mean tenant identity was dropped between arrival and the core.
  if (sum.begins != begins || sum.ends != ends || sum.sheds != sheds) {
    std::ostringstream os;
    os << "per-tenant rows do not sum to totals: begins " << sum.begins
       << "/" << begins << ", ends " << sum.ends << "/" << ends
       << ", sheds " << sum.sheds << "/" << sheds;
    fail(os.str());
  }

  const auto expect = [&](std::uint64_t seen, std::uint64_t stat,
                          const char* what, const char* name) {
    if (seen != stat) {
      std::ostringstream os;
      os << "event count mismatch: " << seen << " " << what
         << " events vs service." << name << " == " << stat;
      fail(os.str());
    }
  };
  expect(enqueues, service.enqueued, "enqueue", "enqueued");
  expect(drains, service.drains, "batch_drain", "drains");
  expect(steals, service.steals, "steal", "steals");
  expect(stolen, service.stolen, "steal-size", "stolen");
  expect(mailboxed, service.mailboxed, "mailbox", "mailboxed");
  expect(sheds, service.shed, "shed", "shed");

  // Every displaced submission — stolen by an idle node or rerouted off a
  // dead one — took exactly one mailbox hop to reach its drain shard.
  if (mailboxed != stolen + service.reroutes) {
    std::ostringstream os;
    os << "mailbox ledger broken: " << mailboxed << " mailbox hops != "
       << stolen << " stolen + " << service.reroutes << " rerouted";
    fail(os.str());
  }

  // The queue loses nothing: every accepted submission is drained in some
  // batch or still sitting in the queue at capture end.
  if (drained + service.still_queued != enqueues) {
    std::ostringstream os;
    os << "queue ledger broken: " << enqueues << " enqueues != " << drained
       << " drained (sum of batch sizes) + " << service.still_queued
       << " still queued";
    fail(os.str());
  }
  // Every drained submission resolves exactly one way: one begin in the
  // core, or shed by the overload ladder. A lost submission shows up as a
  // drain/begin gap here; a double-admit as excess begins.
  if (drained != begins + sheds) {
    std::ostringstream os;
    os << "drain ledger broken: " << drained
       << " drained submissions != " << begins << " begins + " << sheds
       << " sheds";
    fail(os.str());
  }

  if (!errors.empty()) {
    report.ok = false;
    std::ostringstream os;
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (i) os << "\n";
      os << errors[i];
    }
    report.message = os.str();
  }
  return report;
}

ReconcileReport reconcile_waits(std::span<const Event> events,
                                const WaitHistogram& histogram,
                                const WaitStatsCheck& gate) {
  ReconcileReport report;
  std::vector<std::string> errors;
  const auto fail = [&](const std::string& what) { errors.push_back(what); };

  // Replay the same block→exit matching the recorder performs online.
  std::unordered_map<core::PeriodId, double> block_time;
  std::uint64_t blocks = 0;
  std::uint64_t resolved = 0;
  std::uint64_t cancelled = 0;
  double event_wait_total = 0.0;
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kBlock:
        ++blocks;
        block_time[e.period] = e.time;
        break;
      case EventKind::kWake:
      case EventKind::kForceAdmit:
      case EventKind::kCancel:
      case EventKind::kReclaim: {
        const auto it = block_time.find(e.period);
        if (it != block_time.end()) {
          ++resolved;
          if (e.kind == EventKind::kCancel) ++cancelled;
          // Clamped like WaitHistogram::add: a wake stamped on another
          // thread's clock can precede its own block by a few ns.
          event_wait_total += std::max(e.time - it->second, 0.0);
          block_time.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
  report.still_blocked = block_time.size();

  if (histogram.count() != resolved) {
    std::ostringstream os;
    os << "wait histogram holds " << histogram.count()
       << " samples but the event stream closes " << resolved
       << " block intervals";
    fail(os.str());
  }
  const double hist_total = histogram.mean() * histogram.count();
  const double rounding =
      1e-9 * (static_cast<double>(resolved) + 1.0) +
      1e-12 * std::abs(event_wait_total);
  if (std::abs(hist_total - event_wait_total) > rounding) {
    std::ostringstream os;
    os << "wait histogram total " << hist_total
       << "s != event-derived wait total " << event_wait_total << "s";
    fail(os.str());
  }

  if (gate.waits > blocks) {
    std::ostringstream os;
    os << "gate counted " << gate.waits << " waits but the monitor only "
       << blocks << " blocks — a sleep with no block event";
    fail(os.str());
  }
  // The other direction: every block must be accounted for as a logical
  // wait, a no-sleep second-look admission, or a withdrawn (cancelled)
  // request. Timed-out waiters both sleep AND cancel, so this is an
  // inequality, not an identity — but a gate that loses wait accounting
  // (or stops counting under sliced waits) falls below it.
  if (gate.waits + gate.no_sleep_blocks + cancelled < blocks) {
    std::ostringstream os;
    os << "the monitor counted " << blocks << " blocks but the gate only "
       << gate.waits << " waits + " << gate.no_sleep_blocks
       << " no-sleep blocks (+" << cancelled
       << " cancelled) — a block whose wait was never accounted";
    fail(os.str());
  }
  if (gate.spun_waits > gate.waits) {
    std::ostringstream os;
    os << "gate counted " << gate.spun_waits << " spun waits but only "
       << gate.waits << " waits — a spin outside any wait";
    fail(os.str());
  }
  const double slack =
      gate.slack_seconds * (static_cast<double>(blocks) + 1.0);
  if (std::abs(gate.total_wait_seconds - event_wait_total) > slack) {
    std::ostringstream os;
    os << "gate total_wait_seconds " << gate.total_wait_seconds
       << "s disagrees with the event-derived total " << event_wait_total
       << "s by more than " << slack << "s";
    fail(os.str());
  }

  if (!errors.empty()) {
    report.ok = false;
    std::ostringstream os;
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (i) os << "\n";
      os << errors[i];
    }
    report.message = os.str();
  }
  return report;
}

ReconcileReport reconcile_resources(std::span<const ResourceRow> resources,
                                    bool expect_quiescent) {
  ReconcileReport report;
  std::vector<std::string> errors;
  const auto fail = [&](const std::string& what) { errors.push_back(what); };

  for (const ResourceRow& row : resources) {
    const std::string name(to_string(row.kind));
    // Megabyte-scale increment/decrement churn leaves ~1e-2-byte residues;
    // scale the tolerance like AdmissionCore::audit does.
    const double tol = 1e-3 * std::max(1.0, row.capacity);
    if (!std::isinf(row.bound)) {
      const double lhs = row.usage + row.free - row.overdraft;
      if (std::abs(lhs - row.bound) > tol) {
        std::ostringstream os;
        os << name << ": usage (" << row.usage << ") + free (" << row.free
           << ") - overdraft (" << row.overdraft
           << ") != admission bound (" << row.bound << ")";
        fail(os.str());
      }
    }
    if (row.overdraft < -tol) {
      fail(name + ": negative overdraft");
    }
    if (row.oversubscribed < -tol) {
      fail(name + ": negative oversubscription tally");
    }
    if (expect_quiescent) {
      if (std::abs(row.usage) > tol) {
        std::ostringstream os;
        os << name << ": usage " << row.usage << " did not return to zero";
        fail(os.str());
      }
      if (std::abs(row.overdraft) > tol) {
        std::ostringstream os;
        os << name << ": overdraft " << row.overdraft
           << " did not return to zero";
        fail(os.str());
      }
      if (std::abs(row.oversubscribed) > tol) {
        std::ostringstream os;
        os << name << ": oversubscription tally " << row.oversubscribed
           << " did not return to zero";
        fail(os.str());
      }
    }
  }

  if (!errors.empty()) {
    report.ok = false;
    std::ostringstream os;
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (i) os << "\n";
      os << errors[i];
    }
    report.message = os.str();
  }
  return report;
}

}  // namespace rda::obs
