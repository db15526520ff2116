// The one place observability documents touch the filesystem.
//
// Every exporter in obs/ only renders a document to a string; the bench
// harness and the examples hand that string here to write it. Keeping a
// single writer gives every artifact the same binary, truncate-on-open
// semantics and one failure signal.
#pragma once

#include <string>
#include <string_view>

namespace dlte::obs {

// Writes `text` verbatim to `path` (binary, truncating); false on I/O
// failure.
[[nodiscard]] bool write_text_file(const std::string& path,
                                   std::string_view text);

}  // namespace dlte::obs
