// gen_fuzz_corpus: writes the deterministic parser-fuzz corpus to disk.
//
// Emits the exact inputs tests/test_parser_fuzz.cpp generates in memory
// (same seed → same bytes), so a harness failure can be debugged standalone:
//
//   $ ./gen_fuzz_corpus --out corpus [--seed 3192549647] [--per-kind 64]
//   $ ls corpus
//   pcap_000.pcap … dns_000.bin … tls_000.bin … models_000.bbm … MANIFEST
//
// The pcap files cycle through all four magic variants (native/swapped ×
// µs/ns), so they double as interop samples for tcpdump/wireshark.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "behaviot/core/fuzz_corpus.hpp"

using namespace behaviot;

namespace {

void write_file(const std::filesystem::path& path, const void* data,
                std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path.string());
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

std::string numbered(const char* stem, std::size_t i, const char* ext) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s_%03zu%s", stem, i, ext);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = "fuzz_corpus";
  std::uint64_t seed = 0xbe4a710f;  // mirrors tests/test_parser_fuzz.cpp
  std::size_t per_kind = 64;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--out") == 0) out_dir = argv[i + 1];
    else if (std::strcmp(argv[i], "--seed") == 0) seed = std::stoull(argv[i + 1]);
    else if (std::strcmp(argv[i], "--per-kind") == 0) {
      per_kind = std::stoul(argv[i + 1]);
    } else {
      std::fprintf(stderr,
                   "usage: gen_fuzz_corpus [--out DIR] [--seed S]"
                   " [--per-kind N]\n");
      return 2;
    }
  }

  const auto corpus = fuzz::make_corpus(seed, per_kind);
  const std::filesystem::path dir(out_dir);
  std::filesystem::create_directories(dir);

  std::ofstream manifest(dir / "MANIFEST");
  manifest << "seed " << seed << "\nper-kind " << per_kind << "\n";
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < per_kind; ++i) {
    const auto& pcap = corpus.pcaps[i];
    write_file(dir / numbered("pcap", i, ".pcap"), pcap.data(), pcap.size());
    const auto& dns = corpus.dns[i];
    write_file(dir / numbered("dns", i, ".bin"), dns.data(), dns.size());
    const auto& tls = corpus.tls[i];
    write_file(dir / numbered("tls", i, ".bin"), tls.data(), tls.size());
    const auto& bbm = corpus.binary_models[i];
    write_file(dir / numbered("models", i, ".bbm"), bbm.data(), bbm.size());
    bytes += pcap.size() + dns.size() + tls.size() + bbm.size();
  }
  std::printf("wrote %zu files (%zu bytes) to %s (seed %llu)\n", 4 * per_kind,
              bytes, out_dir.c_str(),
              static_cast<unsigned long long>(seed));
  return 0;
}
