#include "calibration.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::size_t kernel_samples = std::size_t{1} << 14; // 128 KiB
constexpr std::size_t kernel_taps = 48;
constexpr int kernel_rounds = 30;

/// Receives every slice's result, so no part of the kernel is dropped.
std::atomic<double> kernel_sink{0.0};

double wall_now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double thread_cpu_ms() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return 1e3 * static_cast<double>(ts.tv_sec) +
           1e-6 * static_cast<double>(ts.tv_nsec);
}

/// The reference work: fixed data and a fixed operation count.  The
/// buffers live on the stack: heap blocks of this size would move glibc's
/// mmap threshold and so the library's own memory use.
double reference_kernel() {
    std::array<double, kernel_samples> x{};
    std::array<double, kernel_taps> h{};
    for (std::size_t i = 0; i < kernel_samples; ++i)
        x[i] = std::sin(0.01 * static_cast<double>(i));
    for (std::size_t k = 0; k < kernel_taps; ++k)
        h[k] = 1.0 / (1.0 + static_cast<double>(k));
    double acc = 0.0;
    for (int r = 0; r < kernel_rounds; ++r) {
        for (std::size_t i = kernel_taps; i < kernel_samples; ++i) {
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (std::size_t k = 0; k < kernel_taps; k += 4) {
                s0 += h[k] * x[i - k];
                s1 += h[k + 1] * x[i - k - 1];
                s2 += h[k + 2] * x[i - k - 2];
                s3 += h[k + 3] * x[i - k - 3];
            }
            const double s = (s0 + s1) + (s2 + s3);
            // Feeds the next round; stays of order one.
            x[i - kernel_taps] = 0.5 * x[i - kernel_taps] + 1e-3 * s;
            acc += s;
        }
        for (std::size_t i = 0; i < kernel_samples; i += 4)
            acc += std::sin(x[i]) * std::cos(1e-3 * static_cast<double>(i));
    }
    return acc;
}

double median(std::vector<double> v) {
    if (v.empty())
        throw std::logic_error("speed_meter: no calibration slices");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace

calibration_slice run_calibration_slice() {
    const double w0 = wall_now_ms();
    const double c0 = thread_cpu_ms();
    kernel_sink.store(reference_kernel(), std::memory_order_relaxed);
    calibration_slice s;
    s.cpu_ms = thread_cpu_ms() - c0;
    s.wall_ms = wall_now_ms() - w0;
    return s;
}

void speed_meter::add(const calibration_slice& s) {
    const std::lock_guard<std::mutex> lock(mu_);
    wall_ms_.push_back(s.wall_ms);
    cpu_ms_.push_back(s.cpu_ms);
}

double speed_meter::wall_factor() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return reference_slice_ms / median(wall_ms_);
}

double speed_meter::cpu_factor() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return reference_slice_ms / median(cpu_ms_);
}

std::size_t speed_meter::slices() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return wall_ms_.size();
}

double speed_meter::total_wall_ms() const {
    const std::lock_guard<std::mutex> lock(mu_);
    double s = 0.0;
    for (const double v : wall_ms_)
        s += v;
    return s;
}

double speed_meter::total_cpu_ms() const {
    const std::lock_guard<std::mutex> lock(mu_);
    double s = 0.0;
    for (const double v : cpu_ms_)
        s += v;
    return s;
}

} // namespace perfbench
