// Interactive demonstration of the MED-CC scheduling stack over the
// wire: stands up a SchedulingService behind the epoll TCP server on
// loopback (or connects to a remote medcc_server), then replays a small
// mixed workload through the blocking client -- the paper's Fig. 2
// example under several solvers pipelined as one batch, verbatim
// duplicates, a module/catalog-permuted twin, and deliberately broken
// requests -- prints every response, and fetches the service metrics
// through the StatsRequest frame.
//
// Usage: medcc_serve_demo [--threads N] [--io-threads N] [--budget B]
//                         [--connect HOST:PORT] [--stats]
//                         [--trace-solve HOST:PORT,... [--tenant T]]
//
// --trace-solve drives ONE traced solve through a ClusterClient over
// the given replicas (sample-every-1 client tracer, so the journey is
// fully retained) and prints the minted trace id plus the client-side
// span stages -- the driver half of tools/trace_smoke.sh, which then
// reads the same id back out of the replicas with medcc_tracectl.
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/vm_type.hpp"
#include "net/client.hpp"
#include "net/cluster_client.hpp"
#include "net/endpoint.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "sched/instance.hpp"
#include "service/service.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workflow/patterns.hpp"
#include "workflow/workflow.hpp"

namespace {

using medcc::cloud::VmCatalog;
using medcc::cloud::VmType;
using medcc::sched::Instance;
using medcc::service::SchedulingRequest;
using medcc::service::SchedulingResponse;
using medcc::service::SchedulingService;
using medcc::service::ServiceConfig;
using medcc::workflow::Workflow;

/// The Fig. 2 example rebuilt with modules and edges in reversed
/// insertion order and the Table I catalog reshuffled: the same problem
/// wearing a different index layout.
std::shared_ptr<const Instance> permuted_example() {
  const Workflow wf = medcc::workflow::example6();
  Workflow out;
  std::vector<std::size_t> new_id(wf.module_count());
  for (std::size_t i = wf.module_count(); i-- > 0;) {
    const auto& mod = wf.module(i);
    new_id[i] = mod.is_fixed()
                    ? out.add_fixed_module(mod.name, *mod.fixed_time)
                    : out.add_module(mod.name, mod.workload);
  }
  for (std::size_t e = wf.graph().edge_count(); e-- > 0;) {
    const auto& edge = wf.graph().edge(e);
    out.add_dependency(new_id[edge.src], new_id[edge.dst], wf.data_size(e));
  }
  auto types = medcc::cloud::example_catalog().types();
  std::swap(types.front(), types.back());
  return std::make_shared<const Instance>(
      Instance::from_model(std::move(out), VmCatalog(std::move(types))));
}

SchedulingRequest make_request(std::shared_ptr<const Instance> inst, double b,
                               std::string solver, std::string tenant = "") {
  SchedulingRequest req;
  req.instance = std::move(inst);
  req.budget = b;
  req.solver = std::move(solver);
  req.tenant = std::move(tenant);
  return req;
}

/// One traced solve through a ClusterClient: prints the minted trace
/// id and the client-side span stages, so a shell smoke can correlate
/// the id against the replicas' trace dumps (medcc_tracectl).
int trace_solve(const std::string& endpoint_list, const std::string& tenant,
                double budget) {
  medcc::net::ClusterClientConfig config;
  std::size_t begin = 0;
  while (begin <= endpoint_list.size()) {
    const std::size_t comma = endpoint_list.find(',', begin);
    const std::string_view token =
        std::string_view(endpoint_list)
            .substr(begin, comma == std::string::npos ? std::string::npos
                                                      : comma - begin);
    auto endpoint = medcc::net::parse_endpoint(token);
    if (!endpoint) {
      std::cerr << "medcc_serve_demo: bad endpoint '" << token << "'\n";
      return 2;
    }
    config.endpoints.push_back(*std::move(endpoint));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  medcc::obs::Tracer::Config trace_config;
  trace_config.sample_every = 1;  // retain this solve's whole journey
  medcc::obs::Tracer tracer(trace_config);
  config.tracer = &tracer;
  config.down_cooldown_ms = 200.0;
  medcc::net::ClusterClient client(std::move(config));

  const auto example = std::make_shared<const Instance>(Instance::from_model(
      medcc::workflow::example6(), medcc::cloud::example_catalog()));
  const SchedulingResponse response =
      client.solve(make_request(example, budget, "cg", tenant));

  const auto minted = tracer.recent(1);
  std::cout << "trace "
            << (minted.empty() ? std::string(32, '0')
                               : minted[0].id.to_hex())
            << " status " << to_string(response.status) << " spans ";
  if (minted.empty()) {
    std::cout << "-";
  } else {
    for (std::size_t i = 0; i < minted[0].spans.size(); ++i)
      std::cout << (i == 0 ? "" : ",")
                << medcc::obs::to_string(minted[0].spans[i].stage);
  }
  std::cout << "\n";
  return response.ok() && !minted.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t threads = 2;
  std::size_t io_threads = 1;  // reactors for the in-process server
  double budget = 57.0;  // the paper's numerical example
  bool stats_only = false;
  std::optional<std::pair<std::string, std::uint16_t>> remote;
  std::string trace_endpoints;
  std::string tenant = "demo";
  constexpr const char* usage =
      "usage: medcc_serve_demo [--threads N] [--io-threads N] [--budget B] "
      "[--connect HOST:PORT] [--stats] "
      "[--trace-solve HOST:PORT,... [--tenant T]]\n";
  // Numeric parsing throws on junk or out-of-range values; answer with
  // the usage string instead of an uncaught-exception abort.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--threads" && i + 1 < argc) {
        threads = medcc::util::parse_flag_size(argv[++i]);
      } else if (arg == "--io-threads" && i + 1 < argc) {
        io_threads = medcc::util::parse_flag_size(argv[++i]);
      } else if (arg == "--budget" && i + 1 < argc) {
        budget = medcc::util::parse_flag_double(argv[++i]);
      } else if (arg == "--stats") {
        stats_only = true;
      } else if (arg == "--trace-solve" && i + 1 < argc) {
        trace_endpoints = argv[++i];
      } else if (arg == "--tenant" && i + 1 < argc) {
        tenant = argv[++i];
      } else if (arg == "--connect" && i + 1 < argc) {
        const std::string endpoint = argv[++i];
        const auto colon = endpoint.rfind(':');
        if (colon == std::string::npos || colon + 1 >= endpoint.size()) {
          std::cerr << "medcc_serve_demo: --connect expects HOST:PORT\n";
          return 2;
        }
        remote = {endpoint.substr(0, colon),
                  medcc::util::parse_flag_port(endpoint.substr(colon + 1))};
      } else {
        std::cerr << usage;
        return 2;
      }
    }
  } catch (const std::exception&) {
    std::cerr << "medcc_serve_demo: invalid argument value\n" << usage;
    return 2;
  }

  try {
    if (!trace_endpoints.empty())
      return trace_solve(trace_endpoints, tenant, budget);
    // Without --connect, stand the whole stack up in-process and talk to
    // it over loopback TCP anyway: the demo exercises the same wire path
    // a remote client would.
    std::unique_ptr<SchedulingService> local_service;
    std::unique_ptr<medcc::net::Server> local_server;
    medcc::net::ClientConfig client_config;
    if (remote) {
      client_config.host = remote->first;
      client_config.port = remote->second;
    } else {
      local_service = std::make_unique<SchedulingService>(
          ServiceConfig{.threads = threads});
      medcc::net::ServerConfig server_config;
      server_config.io_threads = io_threads;
      local_server =
          std::make_unique<medcc::net::Server>(*local_service, server_config);
      client_config.port = local_server->port();
    }
    medcc::net::Client client(client_config);
    client.connect();
    std::cout << "connected to " << client_config.host << ":"
              << client_config.port
              << (remote ? " (remote server)" : " (in-process loopback)")
              << "\n\n";

    if (stats_only) {
      std::cout << client.stats();
      return 0;
    }

    const auto example = std::make_shared<const Instance>(Instance::from_model(
        medcc::workflow::example6(), medcc::cloud::example_catalog()));
    const auto twin = permuted_example();

    const std::vector<std::string> labels = {
        "fig2 / cg",         "fig2 / gain3",
        "fig2 / loss2",      "fig2 / cg repeat",
        "fig2 twin / cg",    "unknown solver",
        "infeasible budget",
    };
    std::vector<SchedulingRequest> requests;
    requests.push_back(make_request(example, budget, "cg", "demo"));
    requests.push_back(make_request(example, budget, "gain3", "demo"));
    requests.push_back(make_request(example, budget, "loss2", "demo"));
    requests.push_back(make_request(example, budget, "cg", "demo"));
    requests.push_back(make_request(twin, budget, "cg", "demo"));
    requests.push_back(make_request(example, budget, "frobnicate", "demo"));
    requests.push_back(make_request(example, 1.0, "cg", "demo"));

    // One pipelined burst: all seven frames go out before the first
    // response is read; the server answers them as solves complete.
    const std::vector<SchedulingResponse> responses =
        client.solve_batch(requests);

    medcc::util::Table table(
        {"request", "status", "cache", "MED", "cost", "schedule"});
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const SchedulingResponse& response = responses[i];
      std::string status = to_string(response.status);
      if (!response.ok() && !response.error.empty())
        status += " (" + response.error + ")";
      else if (response.status == medcc::service::ResponseStatus::rejected)
        status += std::string(" (") + to_string(response.reject_reason) + ")";
      const Instance& inst = labels[i].find("twin") != std::string::npos
                                 ? *twin
                                 : *example;
      table.add_row(
          {labels[i], status, to_string(response.cache),
           response.ok() ? medcc::util::fmt(response.result.eval.med) : "-",
           response.ok() ? medcc::util::fmt(response.result.eval.cost) : "-",
           response.ok()
               ? medcc::sched::to_string(inst, response.result.schedule)
               : "-"});
    }
    std::cout << table.render() << "\n";

    std::cout << "--- metrics (fetched over the wire) ---\n"
              << client.stats();
    if (local_server) {
      client.close();
      local_server->stop();
    }
  } catch (const std::exception& ex) {
    std::cerr << "medcc_serve_demo: " << ex.what() << "\n";
    return 1;
  }
  return 0;
}
