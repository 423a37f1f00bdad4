/**
 * @file
 * The host speed reference: a fixed piece of ordinary C++ work that
 * shares no code with the programs under test, timed now and then
 * through a run so that the end-to-end times can be scaled to a fixed
 * host speed.
 */
#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>
#include <vector>

#include "bench.hh"

namespace perfbench
{

std::uint64_t
referenceWork()
{
    std::uint64_t s = 0x9e3779b97f4a7c15ull, acc = 0;
    auto next = [&s] {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    };
    // Node-based containers, a sort, and a switch-dispatch loop over
    // random bytecode: the allocation, memory and branch traffic the
    // simulators and analyses also make.
    std::map<std::uint32_t, std::uint32_t> m;
    for (std::uint32_t i = 0; i < 20000; ++i)
        m[static_cast<std::uint32_t>(next() % 100000)] = i;
    for (int i = 0; i < 40000; ++i) {
        const auto it = m.find(static_cast<std::uint32_t>(next() % 100000));
        if (it != m.end())
            acc += it->second;
    }
    std::vector<std::uint64_t> v(100000);
    for (std::uint64_t &x : v)
        x = next();
    std::sort(v.begin(), v.end());
    acc += v[v.size() / 2];
    std::vector<std::uint8_t> code(4096);
    for (std::uint8_t &c : code)
        c = static_cast<std::uint8_t>(next() % 8);
    std::array<std::uint64_t, 4> r{1, 2, 3, 4};
    for (int rep = 0; rep < 200; ++rep) {
        for (const std::uint8_t c : code) {
            switch (c) {
              case 0: r[0] += r[1]; break;
              case 1: r[1] ^= r[2] << 1; break;
              case 2: r[2] -= r[3]; break;
              case 3: r[3] = r[0] * 3; break;
              case 4: r[1] += r[0] & 1; break;
              case 5: r[2] = (r[2] >> 1) | r[1]; break;
              case 6: r[0] = r[3] ^ r[2]; break;
              default: r[1] += 7; break;
            }
        }
    }
    return acc + r[0] + r[1] + r[2] + r[3];
}

void
HostSpeed::sample()
{
    const std::int64_t t0 = cpuNs();
    const std::uint64_t sum = referenceWork();
    ms_.push_back(static_cast<double>(cpuNs() - t0) / 1e6);
    if (sum_ && sum != sum_)
        throw std::runtime_error("the host speed reference is not deterministic");
    sum_ = sum;
    last_ = nowNs();
}

void
HostSpeed::maybeSample()
{
    if (nowNs() - last_ >= 1000000000)
        sample();
}

double
HostSpeed::medianMs() const
{
    std::vector<double> v = ms_;
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

} // namespace perfbench
