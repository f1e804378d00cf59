// Keys and values of the two key-value workloads, and the checks on them.
//
// Every value names the key it was written for and the write's sequence
// number for that key (0 = the bulk load), followed by filler derived from
// both, so a read can be checked byte for byte against what the generator
// wrote.

#ifndef PERFBENCH_KV_MODEL_H_
#define PERFBENCH_KV_MODEL_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

inline constexpr size_t kValueBytes = 100;

// A 2-byte hashed prefix spreads ids over the uniform partition map.
inline std::string KeyFor(int64_t id) {
  uint32_t h = static_cast<uint32_t>(id) * 2654435761u;
  std::string key;
  key.push_back(static_cast<char>(h >> 24));
  key.push_back(static_cast<char>(h >> 16));
  return key + "/k" + std::to_string(id);
}

inline std::string ValueFor(int64_t id, int64_t seq) {
  char head[48];
  int n = std::snprintf(head, sizeof(head), "v%lld.%lld|", static_cast<long long>(id),
                        static_cast<long long>(seq));
  std::string value(head, static_cast<size_t>(n));
  uint64_t x = static_cast<uint64_t>(id) * 1000003u + static_cast<uint64_t>(seq) * 7919u;
  while (value.size() < kValueBytes) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    value.push_back(static_cast<char>('a' + (x >> 59) % 26));
  }
  return value;
}

// The write sequence number encoded in `value` if it is exactly a value the
// generator produces for key `id`; -1 otherwise.
inline int64_t SeqOf(int64_t id, const std::string& value) {
  long long vid = -1, seq = -1;
  if (std::sscanf(value.c_str(), "v%lld.%lld|", &vid, &seq) != 2) return -1;
  if (vid != id || seq < 0) return -1;
  return value == ValueFor(id, seq) ? seq : -1;
}

}  // namespace perfbench

#endif  // PERFBENCH_KV_MODEL_H_
