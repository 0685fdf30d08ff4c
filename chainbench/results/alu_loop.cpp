// Host-speed probe that shares no code with mcTLS: a xorshift and 128-bit
// multiply-accumulate loop, printing millions of iterations per second.
//
//   g++ -O2 -o alu_loop chainbench/results/alu_loop.cpp && ./alu_loop 60
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

int main(int argc, char** argv)
{
    int secs = argc > 1 ? std::atoi(argv[1]) : 60;
    uint64_t x = 88172645463325252ull;
    unsigned __int128 acc = 1;
    for (int s = 0; s < secs; ++s) {
        auto end = std::chrono::steady_clock::now() + std::chrono::seconds(1);
        uint64_t n = 0;
        while (std::chrono::steady_clock::now() < end) {
            for (int i = 0; i < 10000; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc * x + (acc >> 64);
            }
            n += 10000;
        }
        std::printf("%.1f ", static_cast<double>(n) / 1e6);
        std::fflush(stdout);
    }
    std::printf("| %u\n", static_cast<unsigned>(acc & 1));
}
