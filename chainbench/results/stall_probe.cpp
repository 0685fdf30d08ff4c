// Finds the pauses in which this thread did not run: spins for 20 s reading
// steady_clock and reports every gap above 200 us, with the thread CPU time
// that elapsed across those gaps.
//
//   g++ -O2 -o stall_probe chainbench/results/stall_probe.cpp && ./stall_probe
#include <chrono>
#include <cstdio>
#include <ctime>
#include <vector>

static double cpu_ns()
{
    timespec t{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) * 1e9 + static_cast<double>(t.tv_nsec);
}

int main()
{
    using C = std::chrono::steady_clock;
    auto a = C::now();
    double sink = 0;
    for (int i = 0; i < 100000; ++i) sink += cpu_ns();
    auto b = C::now();
    std::printf("thread CPU clock read: %.1f ns\n",
                std::chrono::duration<double, std::nano>(b - a).count() / 1e5);

    auto start = C::now(), prev = start;
    double prev_cpu = cpu_ns();
    long gaps = 0;
    double gap_us = 0, gap_cpu_us = 0;
    std::vector<double> first;
    while (C::now() - start < std::chrono::seconds(20)) {
        auto now = C::now();
        double cpu = cpu_ns();
        double g = std::chrono::duration<double, std::micro>(now - prev).count();
        if (g > 200) {
            ++gaps;
            gap_us += g;
            gap_cpu_us += (cpu - prev_cpu) / 1e3;
            if (first.size() < 20) first.push_back(g);
        }
        prev = now;
        prev_cpu = cpu;
    }
    std::printf("gaps > 200 us: %ld, wall %.1f ms, thread CPU across them %.1f ms (%g)\n", gaps,
                gap_us / 1e3, gap_cpu_us / 1e3, sink > 0 ? 0.0 : 1.0);
    std::printf("first gaps (us):");
    for (double g : first) std::printf(" %.0f", g);
    std::printf("\n");
}
