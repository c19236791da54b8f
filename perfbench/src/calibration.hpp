/// \file calibration.hpp
/// \brief Host-speed calibration for the timed runs.
///
/// The benchmark runs on shared hosts whose speed drifts by a factor of up
/// to two over minutes: neighbours take the cores' shared resources or the
/// host deschedules the virtual CPUs.  A timed run therefore interleaves
/// short slices of a fixed reference kernel with its graded work, on the
/// same threads and under the same load, and reports its times scaled to a
/// reference host speed: the speed at which one slice takes
/// `reference_slice_ms`.  Slices run on the threads that grade the
/// scenarios, between scenarios, so they see the same contention.  The
/// kernel is a double-precision FIR plus a trigonometric pass, the same
/// kinds of work as the library's DSP layers.  It lives in the benchmark's
/// own files and is built without the library's compile options, so no
/// change to the library moves it.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

namespace perfbench {

/// One slice of the reference kernel on one thread.
struct calibration_slice {
    double wall_ms = 0.0; ///< steady-clock time of the slice
    double cpu_ms = 0.0;  ///< the thread's CPU time during the slice
};

/// Slice time on the reference host speed, in both clocks.
inline constexpr double reference_slice_ms = 10.0;

/// Run one slice on the calling thread.
[[nodiscard]] calibration_slice run_calibration_slice();

/// The slices a run took, and the scale factors they give.  Thread-safe.
class speed_meter {
public:
    void add(const calibration_slice& s);

    /// reference_slice_ms / median slice time: multiply a measured time by
    /// it to get the time at the reference host speed.
    [[nodiscard]] double wall_factor() const;
    [[nodiscard]] double cpu_factor() const;
    [[nodiscard]] std::size_t slices() const;
    [[nodiscard]] double total_wall_ms() const;
    [[nodiscard]] double total_cpu_ms() const;

private:
    mutable std::mutex mu_;
    std::vector<double> wall_ms_;
    std::vector<double> cpu_ms_;
};

} // namespace perfbench
