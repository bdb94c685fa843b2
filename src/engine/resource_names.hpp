// Resource names every engine records in its ground truth and blocking
// events, and that the matching Grade10 resource models declare.
#pragma once

namespace g10::engine::resource_names {
inline constexpr const char* kCpu = "cpu";
inline constexpr const char* kNetwork = "network";
inline constexpr const char* kRetry = "Retry";        ///< retransmit backoff
inline constexpr const char* kRecovery = "Recovery";  ///< crash downtime
}  // namespace g10::engine::resource_names
