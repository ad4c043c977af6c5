// The tree's column limit (.clang-format's ColumnLimit: 80), checked
// without clang-format: no line of a file under src/, tests/, tools/ or
// bench/ is wider than 80 columns, counted in UTF-8 characters as the
// formatter counts them. The rest of the style is clang-format's to check.

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

constexpr std::size_t kColumnLimit = 80;

std::size_t Columns(const std::string& line) {
  std::size_t columns = 0;
  for (const char c : line) {
    // A UTF-8 continuation byte (10xxxxxx) extends the previous character.
    columns += (static_cast<unsigned char>(c) & 0xC0) != 0x80 ? 1 : 0;
  }
  return columns;
}

TEST(ColumnLimitTest, NoSourceLineIsWiderThan80Columns) {
  namespace fs = std::filesystem;
  const fs::path root = CEDAR_SOURCE_DIR;
  std::size_t files = 0;
  for (const char* dir : {"src", "tests", "tools", "bench"}) {
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(root / dir)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      ++files;
      std::ifstream in(entry.path());
      std::string line;
      for (int number = 1; std::getline(in, line); ++number) {
        EXPECT_LE(Columns(line), kColumnLimit)
            << entry.path().lexically_relative(root).string() << ":"
            << number;
      }
    }
  }
  EXPECT_GT(files, 100u);  // the walk found the tree
}

}  // namespace
