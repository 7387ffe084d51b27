#include "fault/recovery.hpp"

namespace vfpga::fault {

DownloadOutcome downloadWithRetry(ConfigPort& port, const Bitstream& bs,
                                  const RecoveryOptions& opts) {
  DownloadOutcome out;
  for (int attempt = 0;; ++attempt) {
    const std::uint64_t abortsBefore = port.stats().abortedDownloads;
    out.time += port.download(bs);
    out.aborts += port.stats().abortedDownloads - abortsBefore;
    if (!opts.verifyDownloads) break;
    const VerifyResult v = port.verifyDownload(bs);
    out.time += v.time;
    if (v.ok) break;
    out.verifyFailures += v.badFrames;
    if (attempt >= opts.maxDownloadRetries) {
      out.ok = false;
      break;
    }
    ++out.retries;
    out.time += opts.retryBackoffBase << attempt;
  }
  return out;
}

std::uint16_t stateCrc(const std::vector<bool>& bits) {
  std::uint16_t crc = kCrc16Init;
  for (const bool b : bits) crc = crc16Step(crc, b);
  return crc;
}

}  // namespace vfpga::fault
