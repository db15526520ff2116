#include "common/result.h"

#include <gtest/gtest.h>

#include <string>

namespace dlte {
namespace {

Result<int> parse_positive(int x) {
  if (x <= 0) return fail("not positive");
  return x;
}

TEST(Result, ValuePath) {
  auto r = parse_positive(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(static_cast<bool>(r));
}

TEST(Result, ErrorPath) {
  auto r = parse_positive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "not positive");
}

TEST(Result, ValueOr) {
  EXPECT_EQ(parse_positive(5).value_or(0), 5);
  EXPECT_EQ(parse_positive(-5).value_or(0), 0);
}

TEST(Result, SameValueAndErrorTypeDisambiguated) {
  Result<std::string, std::string> ok_r{std::string{"payload"}};
  Result<std::string, std::string> err_r{Err{std::string{"boom"}}};
  EXPECT_TRUE(ok_r.ok());
  EXPECT_FALSE(err_r.ok());
  EXPECT_EQ(*ok_r, "payload");
  EXPECT_EQ(err_r.error(), "boom");
}

TEST(Result, MoveOutValue) {
  Result<std::string> r{std::string(1000, 'x')};
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken.size(), 1000u);
}

TEST(Result, ArrowOperator) {
  Result<std::string> r{std::string{"abc"}};
  EXPECT_EQ(r->size(), 3u);
}

}  // namespace
}  // namespace dlte
