#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "lcp/base/result.h"
#include "lcp/base/status.h"
#include "lcp/base/strings.h"
#include "lcp/logic/value.h"

namespace lcp {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad arity");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad arity");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad arity");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(DeadlineExceededError("x").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(CancelledError("x").code(), StatusCode::kCancelled);
}

TEST(StatusTest, ResilienceCodesHaveStableNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "UNAVAILABLE");
  EXPECT_EQ(DeadlineExceededError("chase budget").ToString(),
            "DEADLINE_EXCEEDED: chase budget");
  EXPECT_EQ(UnavailableError("breaker open").ToString(),
            "UNAVAILABLE: breaker open");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "CANCELLED");
  EXPECT_EQ(CancelledError("caller went away").ToString(),
            "CANCELLED: caller went away");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(NotFoundError("a"), NotFoundError("a"));
  EXPECT_FALSE(NotFoundError("a") == NotFoundError("b"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = NotFoundError("missing");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> value = std::move(result).value();
  EXPECT_EQ(*value, 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  LCP_ASSIGN_OR_RETURN(int half, Half(x));
  LCP_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd.
  EXPECT_FALSE(Quarter(7).ok());
}

/// What StrCat promises: the concatenation of `os << arg` for each arg.
template <typename... Args>
std::string Streamed(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

enum UnscopedColor { kRed, kGreen = 7 };

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");

  const int64_t int64_min = INT64_MIN;
  const size_t size_max = SIZE_MAX;
  const std::string_view view = "view";
  const std::string text = "text";
  const char* c_string = "c-string";
  const Value int_value = Value::Int(-42);
  const Value str_value = Value::Str("smith");
  EXPECT_EQ(StrCat(int64_min), Streamed(int64_min));
  EXPECT_EQ(StrCat(size_max), Streamed(size_max));
  EXPECT_EQ(StrCat(-1, -987654321, 0, -0), Streamed(-1, -987654321, 0, -0));
  EXPECT_EQ(StrCat(short{-7}, 7u, 8L, 9ULL), Streamed(short{-7}, 7u, 8L, 9ULL));
  EXPECT_EQ(StrCat(0.1 + 0.2), Streamed(0.1 + 0.2));
  EXPECT_EQ(StrCat(1e21), Streamed(1e21));
  EXPECT_EQ(StrCat(1e-7), Streamed(1e-7));
  EXPECT_EQ(StrCat(2.5), Streamed(2.5));
  EXPECT_EQ(StrCat(2.5f, -0.0), Streamed(2.5f, -0.0));
  EXPECT_EQ(StrCat(true, false), Streamed(true, false));
  EXPECT_EQ(StrCat('x', static_cast<signed char>('y'),
                   static_cast<unsigned char>('z')),
            Streamed('x', static_cast<signed char>('y'),
                     static_cast<unsigned char>('z')));
  EXPECT_EQ(StrCat(view, text, c_string), Streamed(view, text, c_string));
  EXPECT_EQ(StrCat(int_value, " ", str_value),
            Streamed(int_value, " ", str_value));
  EXPECT_EQ(StrCat(kRed, kGreen), Streamed(kRed, kGreen));
  EXPECT_EQ(StrCat("t", 12, "_f", size_t{3}), "t12_f3");
}

TEST(StringsTest, StrJoin) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(StrJoin(parts, ", "), "x, y, z");
  EXPECT_EQ(StrJoin(std::vector<int>{1, 2}, "-"), "1-2");
  EXPECT_EQ(StrJoin(std::vector<int>{}, "-"), "");
  EXPECT_EQ(StrJoin(std::vector<double>{0.5, 1e21}, ","),
            Streamed(0.5, ",", 1e21));
  EXPECT_EQ(StrJoin(std::vector<Value>{Value::Int(1), Value::Str("a")}, ";"),
            Streamed(Value::Int(1), ";", Value::Str("a")));
}

TEST(StringsTest, StrSplit) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

}  // namespace
}  // namespace lcp
