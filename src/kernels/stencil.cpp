#include "kernels/stencil.h"

#include "kernels/parallel.h"
#include "util/rng.h"
#include "util/table.h"

namespace ftb::kernels {

std::string StencilConfig::key() const {
  std::string key = util::format(
      "stencil:nx=%zu:ny=%zu:it=%zu:seed=%llu:atol=%g:rtol=%g", nx, ny,
      iterations, static_cast<unsigned long long>(init_seed), atol, rtol);
  // threads = 1 and detector off keep the historical key (see CgConfig).
  if (threads > 1) key += util::format(":thr=%zu", threads);
  if (detector) key += ":det=1";
  return key;
}

StencilProgram::StencilProgram(StencilConfig config)
    : config_(config), init_(config_.nx * config_.ny) {
  util::Rng rng(config_.init_seed);
  for (double& v : init_) v = rng.next_double(-1.0, 1.0);
  if (config_.detector) {
    // Alternating-sign per-row sums: the smoothing sweep preserves interior
    // row sums almost exactly, and the sign fold keeps corruptions in
    // different rows from cancelling in the statistic.
    detector_ = std::make_unique<fi::RowSumDetector>(config_.nx,
                                                     /*atol=*/1e-8,
                                                     /*rtol=*/1e-6);
  }
}

std::vector<double> StencilProgram::run(fi::Tracer& t) const {
  return run_body(t, config_.threads,
                  [this](auto& stepper) { return body(stepper); });
}

template <typename Stepper>
std::vector<double> StencilProgram::body(Stepper& t) const {
  const std::size_t nx = config_.nx;
  const std::size_t ny = config_.ny;
  const std::size_t threads = config_.threads > 0 ? config_.threads : 1;
  const std::size_t width = nx + 2;   // zero halo frame
  const std::size_t height = ny + 2;

  std::vector<double> grid(width * height, 0.0);
  std::vector<double> next(width * height, 0.0);
  const auto index = [width](std::size_t ix, std::size_t iy) {
    return iy * width + ix;
  };

  // Traced initial interior fill.
  t.phase("init");
  traced_parallel_for(t, nx * ny, threads, [&](std::size_t cell, auto& s) {
    const std::size_t ix = 1 + cell % nx;
    const std::size_t iy = 1 + cell / nx;
    grid[index(ix, iy)] = s.step(init_[cell]);
  });

  // The whole field (halo included) is live between sweeps; a resident
  // fault flipped here is read back by the very next sweep (fi/memfault.h).
  t.touch(grid);

  for (std::size_t sweep = 0; sweep < config_.iterations; ++sweep) {
    t.phase("sweep " + std::to_string(sweep));
    traced_parallel_for(t, nx * ny, threads, [&](std::size_t cell, auto& s) {
      const std::size_t ix = 1 + cell % nx;
      const std::size_t iy = 1 + cell / nx;
      const double sum = grid[index(ix, iy)] + grid[index(ix + 1, iy)] +
                         grid[index(ix - 1, iy)] + grid[index(ix, iy + 1)] +
                         grid[index(ix, iy - 1)];
      next[index(ix, iy)] = s.step(0.2 * sum);
    });
    grid.swap(next);
  }

  // Output: the interior field.
  std::vector<double> out;
  out.reserve(nx * ny);
  for (std::size_t iy = 1; iy <= ny; ++iy) {
    for (std::size_t ix = 1; ix <= nx; ++ix) {
      out.push_back(grid[index(ix, iy)]);
    }
  }
  return out;
}

// The generic path, callable on a Tracer from outside this file.
template std::vector<double> StencilProgram::body(fi::Tracer&) const;

}  // namespace ftb::kernels
