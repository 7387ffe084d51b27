// Hostile-input corpus: every file under tests/corpus is a forged VFCK
// checkpoint, VFPB bitstream or NDJSON stream that once crashed, over-
// allocated or was silently accepted. Each must now be rejected with a
// diagnostic — no crash, no exception other than the format's own, no
// allocation sized by a forged count. The sanitizer CI job runs this too.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/bitstream.hpp"
#include "fault/checkpoint.hpp"
#include "obs/stream.hpp"

namespace vfpga {
namespace {

std::vector<std::uint8_t> readBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Corpus, EveryForgedInputIsRejectedWithADiagnostic) {
  std::map<std::string, int> seen;
  for (const auto& entry :
       std::filesystem::directory_iterator(VFPGA_CORPUS_DIR)) {
    const std::filesystem::path& path = entry.path();
    const std::string ext = path.extension().string();
    SCOPED_TRACE(path.filename().string());
    if (ext == ".vfck") {
      const fault::DecodeResult r = fault::decodeCheckpoint(readBytes(path));
      EXPECT_FALSE(r.ok);
      EXPECT_FALSE(r.diagnostic.empty());
    } else if (ext == ".vfpb") {
      EXPECT_THROW(deserializeBitstream(readBytes(path)), std::runtime_error);
    } else if (ext == ".ndjson") {
      const obs::CapturedStream cap = obs::loadStream(path.string());
      EXPECT_FALSE(cap.ok());
      EXPECT_NE(cap.error.find(path.string() + ":"), std::string::npos)
          << cap.error;
    } else {
      ADD_FAILURE() << "unknown corpus file type";
      continue;
    }
    ++seen[ext];
  }
  EXPECT_GE(seen[".vfck"], 4);
  EXPECT_GE(seen[".vfpb"], 1);
  EXPECT_GE(seen[".ndjson"], 3);
}

}  // namespace
}  // namespace vfpga
