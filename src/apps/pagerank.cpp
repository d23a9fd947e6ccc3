#include "apps/pagerank.h"

#include <algorithm>
#include <cmath>

#include "pattern/api.h"
#include "support/rng.h"

namespace psf::apps::pagerank {

namespace {

struct RankParameter {
  double damping = 0.85;
  double num_pages = 1.0;
};

// [psf-user-code-begin]
/// Edge compute: a directed link (u, v) pushes rank[u]/out_degree[u] to v.
/// Only the destination endpoint accumulates — the update flags express
/// directed semantics naturally.
constexpr auto contribute = [](pattern::TypedObject<double>& obj,
                               const pattern::EdgeView& edge,
                               const Page* pages, const void* /*parameter*/) {
  if (!edge.update[1]) return;  // destination owned elsewhere
  const Page& source = pages[edge.node[0]];
  if (source.out_degree <= 0.0) return;
  obj.insert(edge.node[1], source.rank / source.out_degree);
};

constexpr auto rank_reduce = [](double& a, const double& b) { a += b; };

/// Damping update: rank' = (1-d)/N + d * accumulated contributions.
constexpr auto apply_damping = [](Page& page, const double* incoming,
                                  const RankParameter* param) {
  page.rank = (1.0 - param->damping) / param->num_pages +
              param->damping * (incoming != nullptr ? *incoming : 0.0);
};
// [psf-user-code-end]

}  // namespace

std::vector<pattern::Edge> generate_links(const Params& params) {
  support::Xoshiro256 rng(params.seed);
  std::vector<pattern::Edge> links;
  links.reserve(params.num_links);
  for (std::size_t i = 0; i < params.num_links; ++i) {
    const auto u =
        static_cast<std::uint32_t>(rng.next_below(params.num_pages));
    // Skew destinations: popular pages attract more links.
    std::uint32_t v;
    do {
      const double r = rng.next_double();
      v = static_cast<std::uint32_t>(
          static_cast<double>(params.num_pages) * r * r);
      if (v >= params.num_pages) v = 0;
    } while (v == u);
    links.push_back({u, v});
  }
  return links;
}

std::vector<Page> initial_pages(const Params& params,
                                std::span<const pattern::Edge> links) {
  std::vector<Page> pages(params.num_pages);
  for (auto& page : pages) {
    page.rank = 1.0 / static_cast<double>(params.num_pages);
  }
  for (const auto& link : links) pages[link.u].out_degree += 1.0;
  return pages;
}

// [psf-user-code-begin]
Result run_framework(minimpi::Communicator& comm,
                     const pattern::EnvOptions& options, const Params& params,
                     std::span<Page> pages,
                     std::span<const pattern::Edge> links) {
  pattern::RuntimeEnv env(comm, options);
  PSF_CHECK(env.init().is_ok());
  const double t0 = comm.timeline().now();

  RankParameter parameter{params.damping,
                          static_cast<double>(params.num_pages)};
  pattern::TypedIReduce<Page, double> ir(env);
  ir.set_edge_compute(contribute);
  ir.set_node_reduce(rank_reduce);
  ir.set_nodes(pages);
  ir.set_edges(links);
  ir.set_parameter(&parameter);

  for (int iteration = 0; iteration < params.iterations; ++iteration) {
    PSF_CHECK(ir.start().is_ok());
    ir.update_nodedata<RankParameter>(apply_damping);
  }
  comm.barrier();

  Result result;
  result.vtime = comm.timeline().now() - t0;
  result.ranks.resize(pages.size());
  for (std::size_t p = 0; p < pages.size(); ++p) {
    result.ranks[p] = pages[p].rank;
    result.rank_sum += pages[p].rank;
  }
  env.finalize();
  return result;
}
// [psf-user-code-end]

Result run_sequential(const Params& params, std::span<Page> pages,
                      std::span<const pattern::Edge> links) {
  std::vector<double> incoming(pages.size(), 0.0);
  for (int iteration = 0; iteration < params.iterations; ++iteration) {
    std::fill(incoming.begin(), incoming.end(), 0.0);
    for (const auto& link : links) {
      if (pages[link.u].out_degree > 0.0) {
        incoming[link.v] += pages[link.u].rank / pages[link.u].out_degree;
      }
    }
    for (std::size_t p = 0; p < pages.size(); ++p) {
      pages[p].rank =
          (1.0 - params.damping) / static_cast<double>(pages.size()) +
          params.damping * incoming[p];
    }
  }
  Result result;
  result.ranks.resize(pages.size());
  for (std::size_t p = 0; p < pages.size(); ++p) {
    result.ranks[p] = pages[p].rank;
    result.rank_sum += pages[p].rank;
  }
  const auto rates = timemodel::app_rates("moldyn");
  result.vtime = static_cast<double>(links.size()) * params.iterations /
                 rates.cpu_core_units_per_s;
  return result;
}

}  // namespace psf::apps::pagerank
