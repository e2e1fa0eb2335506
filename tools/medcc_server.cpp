// Stand-alone network front end for the MED-CC scheduling service:
// stands up a SchedulingService, binds the epoll TCP server on top of
// it, prints the chosen endpoint, and runs until SIGINT/SIGTERM, then
// shuts down gracefully (drains in-flight solves, flushes responses)
// and prints the final metrics and transport counters.
//
// Usage: medcc_server [--bind ADDR] [--port P] [--threads N]
//                     [--io-threads N] [--queue N] [--tenant-quota N]
//                     [--idle-timeout MS] [--cache-dir DIR]
//                     [--snapshot-interval S] [--cache-ttl S]
//                     [--max-inflight N] [--peers HOST:PORT,...]
//                     [--node-id NAME] [--trace]
//                     [--trace-sample N] [--trace-slow-ms MS]
//                     [--trace-ring N] [--metrics-dump FORMAT]
//
// With --cache-dir the result cache is durable: the service warm-starts
// from DIR's snapshot + journal (crash-tolerant; torn tails are cut)
// and persists every fresh solve, so a restarted server answers repeat
// requests from the cache instead of re-solving.
//
// With --peers the server becomes one replica of a cluster
// (docs/cluster.md): every locally solved cache entry is pushed to the
// listed peers over the protocol-v2 replication channel, records
// arriving from peers are applied into the local cache, and
// cluster_status requests (tools/medcc_clusterctl) report the
// per-peer replication state.
//
// With --trace the server runs a request tracer
// (docs/observability.md): every request gets a 128-bit trace id,
// 1-in-N requests (--trace-sample) plus every request slower than
// --trace-slow-ms keep a full span tree in a bounded ring
// (--trace-ring), and tools/medcc_tracectl reads it all back over the
// trace_dump admin frame. --metrics-dump FORMAT (text, csv, or
// prometheus) prints a final metrics exposition in that format at
// shutdown in place of the default text dump.
#include <csignal>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/replicator.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "util/flags.hpp"

namespace {

constexpr const char* kUsage =
    "usage: medcc_server [--bind ADDR] [--port P] [--threads N] "
    "[--io-threads N] [--queue N] [--tenant-quota N] [--idle-timeout MS] "
    "[--cache-dir DIR] [--snapshot-interval S] [--cache-ttl S] "
    "[--max-inflight N] [--peers HOST:PORT,...] [--node-id NAME] "
    "[--trace] [--trace-sample N] [--trace-slow-ms MS] [--trace-ring N] "
    "[--metrics-dump text|csv|prometheus]\n";

}  // namespace

int main(int argc, char** argv) {
  medcc::service::ServiceConfig service_config;
  medcc::net::ServerConfig server_config;
  std::vector<medcc::net::Endpoint> peers;
  bool tracing = false;
  medcc::obs::Tracer::Config tracer_config;
  std::string metrics_dump = "text";
  // Numeric parsing throws on junk or out-of-range values; answer with
  // the usage string instead of an uncaught-exception abort.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--bind" && i + 1 < argc) {
        server_config.bind_address = argv[++i];
      } else if (arg == "--port" && i + 1 < argc) {
        server_config.port = medcc::util::parse_flag_port(argv[++i]);
      } else if (arg == "--threads" && i + 1 < argc) {
        service_config.threads = medcc::util::parse_flag_size(argv[++i]);
      } else if (arg == "--io-threads" && i + 1 < argc) {
        // 0 means one reactor per hardware thread.
        server_config.io_threads = medcc::util::parse_flag_size(argv[++i]);
      } else if (arg == "--queue" && i + 1 < argc) {
        service_config.queue_capacity = medcc::util::parse_flag_size(argv[++i]);
      } else if (arg == "--tenant-quota" && i + 1 < argc) {
        service_config.max_inflight_per_tenant =
            medcc::util::parse_flag_size(argv[++i]);
      } else if (arg == "--idle-timeout" && i + 1 < argc) {
        server_config.idle_timeout_ms =
            medcc::util::parse_flag_double(argv[++i]);
      } else if (arg == "--cache-dir" && i + 1 < argc) {
        service_config.cache_dir = argv[++i];
      } else if (arg == "--snapshot-interval" && i + 1 < argc) {
        service_config.snapshot_interval_s =
            medcc::util::parse_flag_double(argv[++i]);
      } else if (arg == "--cache-ttl" && i + 1 < argc) {
        service_config.cache_ttl_s = static_cast<std::int64_t>(
            medcc::util::parse_flag_size(argv[++i]));
      } else if (arg == "--max-inflight" && i + 1 < argc) {
        server_config.max_inflight_frames =
            medcc::util::parse_flag_size(argv[++i]);
      } else if (arg == "--peers" && i + 1 < argc) {
        peers = medcc::cluster::parse_peer_list(argv[++i]);
      } else if (arg == "--node-id" && i + 1 < argc) {
        server_config.node_id = argv[++i];
      } else if (arg == "--trace") {
        tracing = true;
      } else if (arg == "--trace-sample" && i + 1 < argc) {
        tracing = true;
        tracer_config.sample_every = static_cast<std::uint32_t>(
            medcc::util::parse_flag_size(argv[++i]));
      } else if (arg == "--trace-slow-ms" && i + 1 < argc) {
        tracing = true;
        tracer_config.slow_ms = medcc::util::parse_flag_double(argv[++i]);
      } else if (arg == "--trace-ring" && i + 1 < argc) {
        tracing = true;
        tracer_config.ring_capacity = medcc::util::parse_flag_size(argv[++i]);
      } else if (arg == "--metrics-dump" && i + 1 < argc) {
        metrics_dump = argv[++i];
        if (metrics_dump != "text" && metrics_dump != "csv" &&
            metrics_dump != "prometheus")
          throw std::invalid_argument("bad --metrics-dump format '" +
                                      metrics_dump + "'");
      } else {
        std::cerr << kUsage;
        return 2;
      }
    }
  } catch (const std::exception& ex) {
    std::cerr << "medcc_server: " << ex.what() << "\n" << kUsage;
    return 2;
  }

  // Block the shutdown signals before any thread is spawned so the
  // service workers and the server IO thread inherit the mask and the
  // signals are delivered only to sigwait below.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
    std::cerr << "medcc_server: cannot set signal mask\n";
    return 1;
  }

  try {
    // Construction order is the wiring order: the tracer and the
    // replicator exist before the service (whose hooks record into /
    // publish into them) and the service before the server (whose
    // hooks call into it); destruction unwinds the reverse way, so
    // nothing dangles.
    std::unique_ptr<medcc::obs::Tracer> tracer;
    if (tracing) {
      tracer = std::make_unique<medcc::obs::Tracer>(tracer_config);
      service_config.tracer = tracer.get();
      server_config.tracer = tracer.get();
    }
    std::unique_ptr<medcc::cluster::Replicator> replicator;
    if (!peers.empty()) {
      medcc::cluster::ClusterConfig cluster_config;
      cluster_config.node_id = server_config.node_id;
      cluster_config.peers = peers;
      replicator =
          std::make_unique<medcc::cluster::Replicator>(cluster_config);
      service_config.on_cache_insert =
          [repl = replicator.get()](std::string payload,
                                    medcc::obs::TraceContext trace) {
            repl->publish(payload, trace);
          };
    }

    medcc::service::SchedulingService service(service_config);

    server_config.repl_apply =
        [&service](std::string_view payload) {
          return service.apply_replicated_record(payload);
        };
    server_config.cluster_status =
        [&service, repl = replicator.get(),
         node_id = server_config.node_id]() {
          medcc::net::ClusterStatus status;
          if (repl != nullptr) status = repl->status();
          status.node_id = node_id;
          const auto& metrics = service.metrics();
          status.repl_applied =
              metrics.value(medcc::service::Counter::repl_applied);
          status.repl_apply_errors =
              metrics.value(medcc::service::Counter::repl_apply_errors);
          return status;
        };

    medcc::net::Server server(service, server_config);
    if (replicator != nullptr) replicator->start();
    std::cout << "medcc_server listening on " << server_config.bind_address
              << ":" << server.port() << " (" << service.thread_count()
              << " workers, " << server.reactor_count() << " reactors, cache "
              << (service.cache_enabled() ? "on" : "off")
              << ", persist "
              << (service.persistence_enabled() ? "on" : "off")
              << ", peers " << peers.size()
              << ", trace " << (tracing ? "on" : "off") << ")"
              << std::endl;

    int signal = 0;
    if (sigwait(&mask, &signal) != 0) {
      std::cerr << "medcc_server: sigwait failed\n";
      return 1;
    }
    std::cout << "medcc_server: caught signal " << signal
              << ", draining..." << std::endl;
    server.stop();
    if (replicator != nullptr) replicator->stop();
    service.drain();

    // The registry dump carries the transport rows too.
    std::cout << "--- metrics ---\n"
              << (metrics_dump == "prometheus"
                      ? service.metrics().dump_prometheus()
                      : metrics_dump == "csv" ? service.metrics().dump_csv()
                                              : service.metrics().dump_text());
  } catch (const std::exception& ex) {
    std::cerr << "medcc_server: " << ex.what() << "\n";
    return 1;
  }
  return 0;
}
