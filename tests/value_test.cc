#include "abdm/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace mlds::abdm {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.kind(), ValueKind::kNull);
}

TEST(ValueTest, IntegerRoundTrip) {
  Value v = Value::Integer(42);
  EXPECT_TRUE(v.is_integer());
  EXPECT_EQ(v.AsInteger(), 42);
  EXPECT_EQ(v.ToString(), "42");
}

TEST(ValueTest, FloatRoundTrip) {
  Value v = Value::Float(2.5);
  EXPECT_TRUE(v.is_float());
  EXPECT_DOUBLE_EQ(v.AsFloat(), 2.5);
}

TEST(ValueTest, FloatTextParsesBackToTheSameDouble) {
  // Snapshots, WAL entries and shipped MBDS requests parse printed values
  // back, so no float may lose digits through ToString.
  const double values[] = {1234567.25,
                           0.1,
                           1.0 / 3.0,
                           9007199254740994.0,  // 2^53 + 2
                           1e-300,
                           std::numeric_limits<double>::denorm_min() * 3,
                           -0.0};
  for (double x : values) {
    const Value v = Value::Float(x);
    const Value parsed = Value::Parse(v.ToString());
    ASSERT_TRUE(parsed.is_numeric()) << v.ToString();
    EXPECT_EQ(parsed, v) << v.ToString();
    EXPECT_EQ(parsed.AsFloat(), x) << v.ToString();
  }
  // Values that six significant digits print exactly keep `%g`'s bytes.
  EXPECT_EQ(Value::Float(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Float(0.1).ToString(), "0.1");
  EXPECT_EQ(Value::Float(1e-300).ToString(), "1e-300");
  EXPECT_EQ(Value::Float(-0.0).ToString(), "-0");
  EXPECT_EQ(Value::Float(1234567.25).ToString(), "1234567.25");
}

TEST(ValueTest, StringRoundTrip) {
  Value v = Value::String("Advanced Database");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "Advanced Database");
  EXPECT_EQ(v.ToString(), "'Advanced Database'");
  EXPECT_EQ(v.ToDisplayString(), "Advanced Database");
}

TEST(ValueTest, ParseQuotedString) {
  Value v = Value::Parse("'Computer Science'");
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "Computer Science");
}

TEST(ValueTest, ParseDoubleQuotedString) {
  Value v = Value::Parse("\"hello\"");
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "hello");
}

TEST(ValueTest, ParseInteger) {
  Value v = Value::Parse("123");
  ASSERT_TRUE(v.is_integer());
  EXPECT_EQ(v.AsInteger(), 123);
}

TEST(ValueTest, ParseNegativeInteger) {
  Value v = Value::Parse("-7");
  ASSERT_TRUE(v.is_integer());
  EXPECT_EQ(v.AsInteger(), -7);
}

TEST(ValueTest, ParseFloat) {
  Value v = Value::Parse("3.75");
  ASSERT_TRUE(v.is_float());
  EXPECT_DOUBLE_EQ(v.AsFloat(), 3.75);
}

TEST(ValueTest, ParseNull) {
  EXPECT_TRUE(Value::Parse("NULL").is_null());
  EXPECT_TRUE(Value::Parse("null").is_null());
}

TEST(ValueTest, ParseBareWordIsString) {
  Value v = Value::Parse("course");
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "course");
}

TEST(ValueTest, IntegerFloatCompareNumerically) {
  EXPECT_EQ(Value::Integer(2).Compare(Value::Float(2.0)), 0);
  EXPECT_LT(Value::Integer(2).Compare(Value::Float(2.5)), 0);
  EXPECT_GT(Value::Float(3.0).Compare(Value::Integer(2)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, NullComparesOnlyToNull) {
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value::Integer(0)), 0);
  EXPECT_GT(Value::Integer(0).Compare(Value::Null()), 0);
}

TEST(ValueTest, MixedKindOrdering) {
  // Numeric sorts before string, deterministically.
  EXPECT_LT(Value::Integer(5).Compare(Value::String("5")), 0);
  EXPECT_GT(Value::String("a").Compare(Value::Float(9.0)), 0);
}

TEST(ValueTest, EqualityOperators) {
  EXPECT_TRUE(Value::Integer(1) == Value::Integer(1));
  EXPECT_TRUE(Value::Integer(1) != Value::Integer(2));
  EXPECT_TRUE(Value::Integer(1) < Value::Integer(2));
}

TEST(ValueTest, NullToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

TEST(ValueOrderTest, IntegersCompareExactly) {
  constexpr int64_t kTwo53 = int64_t(1) << 53;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_LT(Value::Integer(kTwo53), Value::Integer(kTwo53 + 1));
  EXPECT_NE(Value::Integer(kTwo53), Value::Integer(kTwo53 + 1));
  EXPECT_LT(Value::Integer(-kTwo53 - 1), Value::Integer(-kTwo53));
  // 2^53 + 1 is not a double: the nearest one, 2^53, is below it.
  EXPECT_EQ(Value::Integer(kTwo53), Value::Float(double(kTwo53)));
  EXPECT_LT(Value::Float(double(kTwo53)), Value::Integer(kTwo53 + 1));
  EXPECT_LT(Value::Integer(kTwo53 + 1), Value::Float(double(kTwo53 + 2)));
  // INT64_MAX rounds up to 2^63 as a double; INT64_MIN is -2^63 exactly.
  EXPECT_LT(Value::Integer(kMax), Value::Float(9223372036854775808.0));
  EXPECT_EQ(Value::Integer(kMin), Value::Float(-9223372036854775808.0));
  EXPECT_LT(Value::Integer(kMin), Value::Integer(kMin + 1));
  EXPECT_LT(Value::Float(-1e300), Value::Integer(kMin));
  EXPECT_LT(Value::Integer(kMax), Value::Float(1e300));
  // Fractions order against integers on both sides of zero.
  EXPECT_LT(Value::Integer(2), Value::Float(2.5));
  EXPECT_LT(Value::Float(2.5), Value::Integer(3));
  EXPECT_LT(Value::Integer(-3), Value::Float(-2.5));
  EXPECT_LT(Value::Float(-2.5), Value::Integer(-2));
  // 3 and 3.0 stay one key; so do 0, 0.0 and -0.0.
  EXPECT_EQ(Value::Integer(3), Value::Float(3.0));
  EXPECT_EQ(Value::Float(-0.0), Value::Integer(0));
  EXPECT_EQ(Value::Float(-0.0), Value::Float(0.0));
}

TEST(ValueOrderTest, StrictWeakOrderingOverMixedKinds) {
  // Random mixes of null, strings, integers near +-2^53 and the int64
  // limits, and floats near the same magnitudes (+-0.0 included): `<` is
  // irreflexive and transitive, equivalence is transitive, the order is
  // antisymmetric, and two integers are equivalent only when equal.
  constexpr int64_t kTwo53 = int64_t(1) << 53;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::vector<int64_t> integers = {
      kTwo53 - 1, kTwo53, kTwo53 + 1, kTwo53 + 2, -kTwo53 - 1, -kTwo53,
      -kTwo53 + 1, kMax, kMax - 1, kMin, kMin + 1, 0, 3, -3};
  const std::vector<double> floats = {
      double(kTwo53), double(kTwo53) + 2.0, -double(kTwo53),
      9223372036854775808.0, -9223372036854775808.0, 0.0, -0.0, 3.0, 2.5,
      -2.5, 1e300, -1e300};
  std::mt19937 rng(53);
  for (int round = 0; round < 20; ++round) {
    std::vector<Value> values;
    for (int i = 0; i < 40; ++i) {
      switch (rng() % 5) {
        case 0:
          values.push_back(rng() % 4 == 0 ? Value::Null()
                                          : Value::String(std::string(
                                                1, char('a' + rng() % 3))));
          break;
        case 1:
        case 2:
          values.push_back(Value::Integer(integers[rng() % integers.size()]));
          break;
        default:
          values.push_back(Value::Float(floats[rng() % floats.size()]));
      }
    }
    for (const Value& a : values) {
      EXPECT_FALSE(a < a) << a.ToString();
      for (const Value& b : values) {
        EXPECT_EQ(a.Compare(b), -b.Compare(a))
            << a.ToString() << " vs " << b.ToString();
        if (a.is_integer() && b.is_integer()) {
          EXPECT_EQ(a == b, a.AsInteger() == b.AsInteger())
              << a.ToString() << " vs " << b.ToString();
        }
        for (const Value& c : values) {
          if (a < b && b < c) {
            EXPECT_TRUE(a < c) << a.ToString() << " < " << b.ToString()
                               << " < " << c.ToString();
          }
          if (a == b && b == c) {
            EXPECT_TRUE(a == c) << a.ToString() << " = " << b.ToString()
                                << " = " << c.ToString();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mlds::abdm
