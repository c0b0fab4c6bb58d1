#include "sim/sharded.hpp"

#include <algorithm>
#include <chrono>  // focus-lint: allow(determinism): opt-in profiling only
#include <utility>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace focus::sim {

namespace {
// Deterministic coordination counters (sim-time quantities only — the
// wall-clock side lives in the opt-in ShardProfile accounting below, which
// observes but never steers the schedule).
const obs::MetricId kRoundsMetric = obs::MetricId::counter("sharded.rounds");
const obs::MetricId kShardWindowsMetric =
    obs::MetricId::counter("sharded.shard_windows");

/// Monotonic wall clock for the opt-in scheduler profile. This is the ONE
/// place src/sim touches a wall clock: the readings feed ShardProfile
/// accounting only, never a scheduling decision, so digests are identical
/// with profiling on or off (tests/test_telemetry.cpp pins this).
std::int64_t wall_now_ns() {
  // focus-lint: allow(determinism): observation-only profiling clock
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  // focus-lint: allow(determinism): observation-only profiling clock
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}
}  // namespace

ShardedSimulator::ShardedSimulator(std::vector<Simulator*> shards,
                                   Duration window, unsigned threads)
    : shards_(std::move(shards)),
      window_(window),
      threads_(std::clamp<unsigned>(
          threads, 1u, static_cast<unsigned>(shards_.empty() ? 1 : shards_.size()))) {
  FOCUS_CHECK(!shards_.empty()) << "sharded run needs at least one shard";
  FOCUS_CHECK_GT(window_, 0)
      << "conservative window must be positive (Topology::lookahead_floor)";
  for (const Simulator* shard : shards_) {
    FOCUS_CHECK(shard != nullptr);
    FOCUS_CHECK_EQ(shard->now(), shards_.front()->now())
        << "shard clocks must agree at driver construction";
  }
  now_ = shards_.front()->now();
  const std::size_t n = shards_.size();
  windows_run_.assign(n, 0);
  window_width_sum_.assign(n, 0);
  profiles_.assign(n, ShardProfile{});
  round_busy_ns_.assign(n, 0);
  // The coordinator thread's log lines carry the committed fleet time; each
  // shard's own install (Simulator ctor) only matters on the thread that
  // executes it, which run_assigned re-establishes per window.
  Logger::set_time_source(&ShardedSimulator::coordinator_time, this);
  if (threads_ > 1) {
    workers_.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w) {
      workers_.emplace_back([this, w] { worker_main(w); });
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!workers_.empty()) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
  Logger::clear_time_source(this);
}

std::int64_t ShardedSimulator::coordinator_time(const void* ctx) {
  return static_cast<const ShardedSimulator*>(ctx)->now_;
}

void ShardedSimulator::run_assigned(unsigned index, SimTime target) {
  for (std::size_t s = index; s < shards_.size(); s += threads_) {
    Simulator* shard = shards_[s];
    // Stamp this thread's log lines with the clock of the shard it is
    // currently executing.
    Logger::set_time_source(
        [](const void* ctx) {
          return static_cast<const Simulator*>(ctx)->now();
        },
        shard);
    if (wall_profiling_) {
      // round_busy_ns_[s] is confined to this worker for the round (the
      // coordinator reset it before publishing the epoch; it reads it back
      // only after done_cv_ — both orderings ride the existing mutex
      // hand-off, so this stays TSan-clean).
      const std::int64_t t0 = wall_now_ns();
      shard->run_until(target);
      round_busy_ns_[s] = wall_now_ns() - t0;
    } else {
      shard->run_until(target);
    }
    Logger::clear_time_source(shard);
  }
}

void ShardedSimulator::worker_main(unsigned index) {
  std::uint64_t seen = 0;
  for (;;) {
    SimTime target = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      target = target_;
    }
    run_assigned(index, target);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++done_;
    }
    done_cv_.notify_one();
  }
}

void ShardedSimulator::execute_round(SimTime target) {
  std::int64_t round_start_ns = 0;
  if (wall_profiling_) {
    round_start_ns = wall_now_ns();
    std::fill(round_busy_ns_.begin(), round_busy_ns_.end(), 0);
  }
  if (workers_.empty()) {
    run_assigned(0, target);
    // run_assigned left the thread's log-time slot cleared; restore the
    // coordinator stamp for barrier-hook logging.
    Logger::set_time_source(&ShardedSimulator::coordinator_time, this);
  } else {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      target_ = target;
      done_ = 0;
      ++epoch_;
    }
    work_cv_.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return done_ == workers_.size(); });
    }
  }
  if (wall_profiling_) {
    // Fold this round into the per-shard profiles. Every shard ran, so the
    // round splits into busy and stall. busy is clamped to the round wall
    // (the worker and coordinator read the clock at slightly different
    // moments), which makes busy + stall + idle == wall hold exactly.
    const std::int64_t round_wall = wall_now_ns() - round_start_ns;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      ShardProfile& p = profiles_[i];
      const std::int64_t busy = std::min(round_busy_ns_[i], round_wall);
      p.wall_ns += round_wall;
      p.busy_ns += busy;
      p.stall_ns += round_wall - busy;
    }
  }
}

void ShardedSimulator::run_until(SimTime t) {
  FOCUS_CHECK_GE(t, now_) << "sharded time cannot run backwards";
  while (now_ < t) {
    const SimTime target = std::min<SimTime>(now_ + window_, t);
    execute_round(target);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      ++windows_run_[i];
      window_width_sum_[i] += target - now_;
    }
    ++rounds_;
    obs::metrics().add(kRoundsMetric, 1);
    obs::metrics().add(kShardWindowsMetric,
                       static_cast<double>(shards_.size()));
    now_ = target;
    // Workers are parked between windows, so the hook may mutate any shard
    // (merge staged cross-shard messages, audit, sample); the mutex hand-off
    // above orders its writes before the next window's execution.
    if (hook_) hook_(now_);
  }
}

std::uint64_t ShardedSimulator::executed() const noexcept {
  std::uint64_t total = 0;
  for (const Simulator* shard : shards_) total += shard->executed();
  return total;
}

std::uint64_t ShardedSimulator::digest() const noexcept {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (const Simulator* shard : shards_) {
    std::uint64_t d = shard->digest();
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (d >> (byte * 8)) & 0xffu;
      h *= 1099511628211ull;  // FNV-1a prime
    }
  }
  return h;
}

}  // namespace focus::sim
