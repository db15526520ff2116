#include "obs/text_file.h"

#include <fstream>

namespace dlte::obs {

bool write_text_file(const std::string& path, std::string_view text) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(out);
}

}  // namespace dlte::obs
