#include "service/service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sched/verify_hook.hpp"
#include "service/persistence.hpp"
#include "util/log.hpp"

namespace medcc::service {

namespace {

double to_ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double to_seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

struct SchedulingService::Ticket {
  SchedulingRequest request;
  std::function<void(SchedulingResponse)> done;
  std::chrono::steady_clock::time_point admitted;
  /// Tracer time base of `admitted`, set only when the request buffers
  /// spans: spans always use the real steady clock even when
  /// config_.clock is an injected fake, so traces stay truthful under
  /// frozen-clock tests.
  std::int64_t admitted_ns = 0;
};

SchedulingService::SchedulingService(ServiceConfig config)
    : config_(std::move(config)),
      registry_(config_.registry != nullptr ? *config_.registry
                                            : sched::SolverRegistry::built_in()),
      clock_(config_.clock != nullptr
                 ? config_.clock
                 : [] { return std::chrono::steady_clock::now(); }),
      pool_(config_.threads) {
  MEDCC_EXPECTS(config_.queue_capacity > 0);
  MEDCC_EXPECTS(config_.cache_ttl_s >= 0);
  if (config_.cache_capacity > 0) {
    ResultCache::Config cache_config;
    cache_config.capacity = config_.cache_capacity;
    cache_config.ttl_s = config_.cache_ttl_s;
    cache_config.clock = config_.cache_clock;
    cache_config.on_expired = [this](std::size_t n) {
      metrics_.add(Counter::cache_expired, n);
    };
    cache_ = std::make_unique<ResultCache>(cache_config);
    if (config_.wire_cache_capacity > 0) {
      WireCache::Config wire_config;
      wire_config.capacity = config_.wire_cache_capacity;
      wire_config.ttl_s = config_.cache_ttl_s;
      wire_config.clock = config_.cache_clock;
      wire_cache_ = std::make_unique<WireCache>(wire_config);
    }
  }
  if (!config_.cache_dir.empty()) {
    MEDCC_EXPECTS(cache_ != nullptr);  // persistence requires the cache
    persist::StoreConfig store_config;
    store_config.dir = config_.cache_dir;
    store_config.snapshot_interval_s = config_.snapshot_interval_s;
    store_config.journal_rotate_bytes = config_.journal_rotate_bytes;
    store_config.fsync_appends = config_.persist_fsync;
    store_config.on_flush = [this](double seconds) {
      metrics_.add(Counter::persist_flushes);
      metrics_.record(Latency::persist_flush, seconds);
    };
    // Runs without the store lock, while appends go on. Every insertion
    // happens before its append: an entry whose append returned before
    // the flush began is in this export, and a later append rides in
    // the carried tail of the journal that survives the flush.
    store_ = std::make_unique<persist::DurableStore>(
        std::move(store_config), [this] {
          // Piggyback the TTL sweep on the flusher's cadence so expired
          // entries neither serve lookups nor survive into the snapshot.
          cache_->sweep_expired();
          std::vector<std::string> payloads;
          for (const CacheEntry& entry : cache_->export_entries())
            payloads.push_back(encode_cache_record(entry));
          return payloads;
        });

    const auto load_started = clock_();
    const persist::LoadResult loaded = store_->load();
    std::uint64_t restored = 0;
    for (const std::string& payload : loaded.payloads) {
      try {
        cache_->restore(decode_cache_record(payload));
        ++restored;
      } catch (const persist::PersistError&) {
        // A record framed correctly (CRC passed) but undecodable --
        // foreign version or a writer bug. Skip it; warm start degrades
        // to a partial cache instead of failing.
        metrics_.add(Counter::persist_load_errors);
      }
    }
    metrics_.add(Counter::persist_loaded_entries, restored);
    metrics_.add(Counter::persist_replay_truncations, loaded.truncations);
    metrics_.record(Latency::persist_load,
                    to_seconds(clock_() - load_started));
    store_->start();
  }
}

SchedulingService::~SchedulingService() { shutdown(); }

std::future<SchedulingResponse> SchedulingService::submit(
    SchedulingRequest request) {
  auto promise = std::make_shared<std::promise<SchedulingResponse>>();
  auto future = promise->get_future();
  submit_async(std::move(request),
               [promise = std::move(promise)](SchedulingResponse response) {
                 promise->set_value(std::move(response));
               });
  return future;
}

std::vector<std::future<SchedulingResponse>> SchedulingService::submit_batch(
    std::vector<SchedulingRequest> requests) {
  std::vector<std::future<SchedulingResponse>> futures;
  futures.reserve(requests.size());
  for (auto& request : requests) futures.push_back(submit(std::move(request)));
  return futures;
}

void SchedulingService::submit_async(
    SchedulingRequest request, std::function<void(SchedulingResponse)> done) {
  MEDCC_EXPECTS(done != nullptr);
  auto ticket = std::make_shared<Ticket>();
  ticket->request = std::move(request);
  ticket->done = std::move(done);
  metrics_.add(Counter::requests_total);
  // Only registered names reach the per-solver table: a name from the
  // wire is untrusted and would otherwise mint a series per request.
  const bool known_solver = registry_.contains(ticket->request.solver);
  if (known_solver) metrics_.count_solver(ticket->request.solver);

  const auto reject = [&](RejectReason reason) {
    SchedulingResponse response;
    response.status = ResponseStatus::rejected;
    response.reject_reason = reason;
    response.solver = ticket->request.solver;
    metrics_.count_response(response);
    ticket->done(std::move(response));
  };

  if (!accepting_.load(std::memory_order_relaxed)) {
    reject(RejectReason::shutting_down);
    return;
  }
  if (ticket->request.instance == nullptr ||
      !std::isfinite(ticket->request.budget) ||
      ticket->request.budget < 0.0 ||
      !(ticket->request.deadline_ms >= 0.0)) {  // a NaN deadline fails too
    reject(RejectReason::invalid_request);
    return;
  }
  if (!known_solver) {
    reject(RejectReason::unknown_solver);
    return;
  }
  if (!acquire_tenant_slot(ticket->request.tenant)) {
    reject(RejectReason::tenant_quota);
    return;
  }

  // Admission: reserve a queue slot atomically, give it back on overflow.
  if (pending_.fetch_add(1, std::memory_order_relaxed) >=
      config_.queue_capacity) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    release_tenant_slot(ticket->request.tenant);
    reject(RejectReason::queue_full);
    return;
  }
  metrics_.queue_entered();
  ticket->admitted = clock_();
  if (ticket->request.trace_buffer != nullptr)
    ticket->admitted_ns = obs::Tracer::now_ns();

  const bool submitted = pool_.try_submit([this, ticket] { run(*ticket); });
  if (!submitted) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    metrics_.queue_left();
    release_tenant_slot(ticket->request.tenant);
    reject(RejectReason::shutting_down);
  }
}

bool SchedulingService::acquire_tenant_slot(const std::string& tenant) {
  if (config_.max_inflight_per_tenant == 0) return true;
  const util::MutexLock lock(tenant_mutex_);
  std::size_t& inflight = tenant_inflight_[tenant];
  if (inflight >= config_.max_inflight_per_tenant) return false;
  ++inflight;
  return true;
}

void SchedulingService::release_tenant_slot(const std::string& tenant) {
  if (config_.max_inflight_per_tenant == 0) return;
  const util::MutexLock lock(tenant_mutex_);
  const auto it = tenant_inflight_.find(tenant);
  MEDCC_EXPECTS(it != tenant_inflight_.end() && it->second > 0);
  if (--it->second == 0) tenant_inflight_.erase(it);
}

void SchedulingService::run(Ticket& ticket) {
  const auto started = clock_();
  pending_.fetch_sub(1, std::memory_order_relaxed);
  metrics_.queue_left();

  // Stamp this worker's log lines with the request's trace id for the
  // duration of the request ("" = no stamp).
  const util::LogTraceScope log_scope(
      ticket.request.trace.valid() ? ticket.request.trace.id.to_hex()
                                   : std::string());
  // The queue_wait stage's distribution is the queue_delay row below;
  // the tracer keeps only the span.
  if (ticket.request.trace_buffer != nullptr)
    ticket.request.trace_buffer->add(obs::Stage::queue_wait,
                                     ticket.admitted_ns, obs::Tracer::now_ns());

  const double queue_delay_ms = to_ms(started - ticket.admitted);
  SchedulingResponse response;
  response.solver = ticket.request.solver;
  response.queue_delay_ms = queue_delay_ms;

  const double deadline_ms = ticket.request.deadline_ms > 0.0
                                 ? ticket.request.deadline_ms
                                 : config_.default_deadline_ms;
  if (deadline_ms > 0.0 && queue_delay_ms > deadline_ms) {
    response.status = ResponseStatus::rejected;
    response.reject_reason = RejectReason::deadline_expired;
  } else {
    try {
      SchedulingResponse solved = solve(ticket.request);
      solved.solver = std::move(response.solver);
      solved.queue_delay_ms = response.queue_delay_ms;
      response = std::move(solved);
    } catch (const std::exception& e) {
      response.status = ResponseStatus::failed;
      response.error = e.what();
    } catch (...) {
      response.status = ResponseStatus::failed;
      response.error = "unknown error";
    }
  }

  const auto finished = clock_();
  response.solve_ms = to_ms(finished - started);
  metrics_.record(Latency::queue_delay,
                  to_seconds(started - ticket.admitted));
  metrics_.record(Latency::solve, to_seconds(finished - started));
  metrics_.record(Latency::total,
                  to_seconds(finished - ticket.admitted));
  metrics_.record_solver_latency(response.solver,
                                 to_seconds(finished - started));
  metrics_.count_response(response);
  // Free the quota slot before completing, so a caller reacting to its
  // own response can immediately resubmit without bouncing off its quota.
  release_tenant_slot(ticket.request.tenant);
  ticket.done(std::move(response));
}

SchedulingResponse SchedulingService::solve(const SchedulingRequest& request) {
  const sched::Instance& instance = *request.instance;
  const sched::SolverEntry* solver = registry_.entry(request.solver);
  MEDCC_EXPECTS(solver != nullptr);  // admission already checked

  SchedulingResponse response;
  response.status = ResponseStatus::ok;

  // A traced request at a tracing node times its stages: each closes
  // with a sample in the stage's metrics row and, when the request
  // buffers spans, its span.
  const bool traced = config_.tracer != nullptr && request.trace.valid();
  const auto span_clock = [traced]() -> std::int64_t {
    return traced ? obs::Tracer::now_ns() : 0;
  };
  const auto close_stage = [&](Latency row, obs::Stage stage,
                               std::int64_t start_ns) {
    if (!traced) return;
    const std::int64_t end_ns = obs::Tracer::now_ns();
    metrics_.record_stage(row, start_ns, end_ns);
    obs::Tracer::record(request.trace_buffer, stage, start_ns, end_ns);
  };

  // An interned instance answers from the solver's sweep when it has one.
  const auto run_solver = [&]() -> sched::Result {
    if (solver->sweep == nullptr || request.interned == nullptr)
      return solver->solve(instance, request.budget);
    MEDCC_EXPECTS(request.interned->instance() == request.instance);
    bool built = false;
    const sched::BudgetSweep& sweep =
        request.interned->sweep(solver->sweep, built);
    metrics_.add(built ? Counter::solver_sweep_builds
                       : Counter::solver_sweep_reuses);
    return sweep.answer(request.budget);
  };

  if (cache_ == nullptr) {
    response.cache = CacheOutcome::bypass;
    const std::int64_t solver_start = span_clock();
    response.result = run_solver();
    close_stage(Latency::stage_solve, obs::Stage::solve, solver_start);
    sched::detail::check_schedule_invariants(
        instance, response.result.schedule, response.result.eval,
        request.budget, sched::detail::kUnconstrained, "service");
    return response;
  }

  const std::int64_t lookup_start = span_clock();
  const FingerprintDetail fp = fingerprint(request);
  auto hit = cache_->find(fp);
  close_stage(Latency::stage_cache_lookup, obs::Stage::cache_lookup,
              lookup_start);
  if (hit) {
    if (hit->exact) {
      response.cache = CacheOutcome::hit_exact;
      response.result = std::move(hit->result);
      sched::detail::check_schedule_invariants(
          instance, response.result.schedule, response.result.eval,
          request.budget, sched::detail::kUnconstrained, "service-cache");
      return response;
    }
    if (auto remapped = remap_schedule(*hit, fp)) {
      sched::Result result;
      result.schedule = std::move(*remapped);
      result.eval = sched::evaluate(instance, result.schedule);
      result.iterations = hit->result.iterations;
      // A stale or colliding entry can only surface as an over-budget
      // re-mapped schedule; fall through to a fresh solve in that case.
      const double slack =
          1e-9 * std::max(1.0, std::abs(request.budget));
      if (result.eval.cost <= request.budget + slack) {
        response.cache = CacheOutcome::hit_isomorphic;
        response.result = std::move(result);
        sched::detail::check_schedule_invariants(
            instance, response.result.schedule, response.result.eval,
            request.budget, sched::detail::kUnconstrained, "service-cache");
        return response;
      }
    }
  }

  response.cache = CacheOutcome::miss;
  const std::int64_t solver_start = span_clock();
  response.result = run_solver();
  close_stage(Latency::stage_solve, obs::Stage::solve, solver_start);
  sched::detail::check_schedule_invariants(
      instance, response.result.schedule, response.result.eval,
      request.budget, sched::detail::kUnconstrained, "service");
  if (store_ == nullptr && config_.on_cache_insert == nullptr) {
    cache_->insert(fp, response.result);
  } else {
    // Insert BEFORE journaling: a flush's snapshot source sees every
    // entry whose append returned before the flush began, and the store
    // carries later appends into the journal that survives it, so the
    // entry is never dropped.
    CacheEntry entry = ResultCache::make_entry(fp, response.result);
    std::string payload = encode_cache_record(entry);
    cache_->insert(std::move(entry));
    if (store_ != nullptr) {
      const std::int64_t append_start = span_clock();
      const auto append_started = clock_();
      store_->append(payload);
      // This row is also the persist_append stage's distribution.
      metrics_.record(Latency::persist_append,
                      to_seconds(clock_() - append_started));
      if (traced)
        obs::Tracer::record(request.trace_buffer, obs::Stage::persist_append,
                            append_start, obs::Tracer::now_ns());
      metrics_.add(Counter::persist_journal_appends);
    }
    // Publish the locally solved entry to the replicator (peers apply
    // it via apply_replicated_record, which does not re-publish). The
    // request's trace context rides along so the replication hop stays
    // on the same trace.
    if (config_.on_cache_insert != nullptr) {
      const std::int64_t push_start = span_clock();
      config_.on_cache_insert(std::move(payload), request.trace);
      close_stage(Latency::stage_repl_push, obs::Stage::repl_push,
                  push_start);
    }
  }
  return response;
}

bool SchedulingService::apply_replicated_record(std::string_view payload) {
  if (cache_ == nullptr) {
    metrics_.add(Counter::repl_apply_errors);
    return false;
  }
  try {
    cache_->restore(decode_cache_record(payload));
  } catch (const std::exception&) {
    // Malformed or foreign-version record from a peer: count and drop.
    metrics_.add(Counter::repl_apply_errors);
    return false;
  }
  metrics_.add(Counter::repl_applied);
  return true;
}

std::size_t SchedulingService::sweep_expired() {
  if (cache_ == nullptr) return 0;
  return cache_->sweep_expired();
}

void SchedulingService::drain() { pool_.wait_idle(); }

void SchedulingService::shutdown() {
  accepting_.store(false, std::memory_order_relaxed);
  pool_.request_stop();
  pool_.wait_idle();
  if (store_ != nullptr) {
    // Workers are parked: fold the journal into a final snapshot so the
    // next boot loads one file, then stop the flusher.
    store_->flush_if_dirty();
    store_->stop();
  }
}

ResultCache::Stats SchedulingService::cache_stats() const {
  if (cache_ == nullptr) return {};
  return cache_->stats();
}

persist::DurableStore::Stats SchedulingService::persist_stats() const {
  if (store_ == nullptr) return {};
  return store_->stats();
}

void SchedulingService::flush_persistence() {
  MEDCC_EXPECTS(store_ != nullptr);
  store_->flush();
}

}  // namespace medcc::service
