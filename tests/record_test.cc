#include "abdm/record.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace mlds::abdm {
namespace {

TEST(RecordTest, SetAndGet) {
  Record r;
  r.Set("title", Value::String("Database"));
  r.Set("credits", Value::Integer(4));
  ASSERT_TRUE(r.Get("title").has_value());
  EXPECT_EQ(r.Get("title")->AsString(), "Database");
  EXPECT_EQ(r.Get("credits")->AsInteger(), 4);
  EXPECT_FALSE(r.Get("absent").has_value());
}

TEST(RecordTest, SetOverwritesExistingKeyword) {
  Record r;
  r.Set("credits", Value::Integer(3));
  r.Set("credits", Value::Integer(4));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.Get("credits")->AsInteger(), 4);
}

TEST(RecordTest, AtMostOneKeywordPerAttribute) {
  // The constructor drops later duplicates, preserving the ABDM record
  // invariant (at most one keyword per attribute).
  Record r({{"a", Value::Integer(1)}, {"a", Value::Integer(2)},
            {"b", Value::Integer(3)}});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.Get("a")->AsInteger(), 1);
}

TEST(RecordTest, GetOrNull) {
  Record r;
  EXPECT_TRUE(r.GetOrNull("missing").is_null());
  r.Set("x", Value::Integer(9));
  EXPECT_EQ(r.GetOrNull("x").AsInteger(), 9);
}

TEST(RecordTest, EraseKeyword) {
  Record r;
  r.Set("a", Value::Integer(1));
  EXPECT_TRUE(r.Erase("a"));
  EXPECT_FALSE(r.Has("a"));
  EXPECT_FALSE(r.Erase("a"));
}

TEST(RecordTest, TextualPortion) {
  Record r;
  r.set_text("a verbal description of the concept");
  EXPECT_EQ(r.text(), "a verbal description of the concept");
}

TEST(RecordTest, ToStringKeywordList) {
  Record r;
  r.Set(std::string(kFileAttribute), Value::String("course"));
  r.Set("credits", Value::Integer(4));
  EXPECT_EQ(r.ToString(), "(<FILE, 'course'>, <credits, 4>)");
}

TEST(RecordTest, Equality) {
  Record a, b;
  a.Set("x", Value::Integer(1));
  b.Set("x", Value::Integer(1));
  EXPECT_EQ(a, b);
  b.Set("x", Value::Integer(2));
  EXPECT_FALSE(a == b);
}

/// Every value kind, in a keyword order that is not sorted by name.
Record EveryKind() {
  Record r;
  r.Set(std::string(kFileAttribute), Value::String("course"));
  r.Set("title", Value::String("Data'bases"));
  r.Set("credits", Value::Integer(-4));
  r.Set("big", Value::Integer(std::numeric_limits<int64_t>::max()));
  r.Set("gpa", Value::Float(3.25));
  r.Set("absent", Value::Null());
  r.Set("empty", Value::String(""));
  r.set_text("a verbal description");
  return r;
}

std::string Serialized(const Record& r) {
  std::string out;
  SerializeRecord(r, out);
  return out;
}

/// One keyword's encoding: name, kind tag, then an integer's 8 bytes.
std::string IntegerKeyword(std::string_view name, uint8_t value) {
  std::string out;
  out.push_back(char(name.size()));
  out.append(3, '\0');
  out += name;
  out.push_back(char(ValueKind::kInteger));
  out.push_back(char(value));
  out.append(7, '\0');
  return out;
}

std::string Payload(uint8_t count, const std::string& keywords) {
  std::string out(1, char(count));
  out.append(3, '\0');
  out += keywords;
  out.append(4, '\0');  // empty text
  return out;
}

TEST(RecordTest, SerializeRoundTripsEveryValueKindInKeywordOrder) {
  const Record r = EveryKind();
  auto back = DeserializeRecord(Serialized(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
  EXPECT_EQ(back->ToString(), r.ToString());
  EXPECT_EQ(back->text(), "a verbal description");
  ASSERT_EQ(back->size(), r.size());
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(back->attribute(i), r.attribute(i));
    EXPECT_EQ(back->value(i).kind(), r.value(i).kind());
  }
  EXPECT_EQ(back->value(4).AsFloat(), 3.25);
  EXPECT_EQ(back->value(3).AsInteger(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Serialized(*back), Serialized(r));
}

TEST(RecordTest, SerializeRoundTripsEmptyRecord) {
  Record empty;
  auto back = DeserializeRecord(Serialized(empty));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
  EXPECT_EQ(*back, empty);
  Record text_only;
  text_only.set_text("only text");
  back = DeserializeRecord(Serialized(text_only));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, text_only);
}

TEST(RecordTest, DeserializeRejectsEveryTruncation) {
  const std::string bytes = Serialized(EveryKind());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DeserializeRecord(bytes.substr(0, cut)).has_value())
        << "accepted a payload cut at byte " << cut;
  }
}

TEST(RecordTest, DeserializeRejectsBadTagTrailingBytesAndRepeatedName) {
  EXPECT_TRUE(DeserializeRecord(Payload(1, IntegerKeyword("a", 1))));
  std::string bad_tag = Payload(1, IntegerKeyword("a", 1));
  bad_tag[4 + 4 + 1] = char(9);  // after the count, name length and name
  EXPECT_FALSE(DeserializeRecord(bad_tag).has_value());
  EXPECT_FALSE(
      DeserializeRecord(Payload(1, IntegerKeyword("a", 1)) + "x").has_value());
  // The constructor drops a repeated name; a payload repeating one is
  // malformed, not a different record.
  const std::string repeated =
      Payload(2, IntegerKeyword("a", 1) + IntegerKeyword("a", 2));
  EXPECT_FALSE(DeserializeRecord(repeated).has_value());
  RecordDecoder decoder;
  ASSERT_TRUE(decoder.Decode(Payload(2, IntegerKeyword("a", 1) +
                                            IntegerKeyword("b", 2))));
  EXPECT_FALSE(decoder.Decode(repeated).has_value());
  // A keyword count the remaining bytes cannot hold is rejected up front.
  EXPECT_FALSE(DeserializeRecord(Payload(255, IntegerKeyword("a", 1))));
}

TEST(RecordTest, RecordsOfOneTableShareLayoutsInEitherKeywordOrder) {
  Record ab, ba;
  ab.Set("a", Value::Integer(1));
  ab.Set("b", Value::String("x"));
  ba.Set("b", Value::String("y"));
  ba.Set("a", Value::Integer(2));
  LayoutTable table;
  table.Intern(ab);
  table.Intern(ba);
  table.Intern(ab);
  EXPECT_EQ(table.size(), 2u);
  RecordDecoder decoder(&table);
  const Record inputs[] = {ab, ba, ba, ab};
  std::vector<Record> decoded;
  for (const Record& r : inputs) {
    auto back = decoder.Decode(Serialized(r));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, r);
    EXPECT_EQ(back->ToString(), r.ToString());
    decoded.push_back(std::move(*back));
  }
  EXPECT_EQ(decoded[0].layout(), decoded[3].layout());
  EXPECT_EQ(decoded[1].layout(), decoded[2].layout());
  EXPECT_NE(decoded[0].layout(), decoded[1].layout());
  EXPECT_EQ(decoded[1].Slot("a"), 1u);
  EXPECT_EQ(decoded[1].Find("b")->AsString(), "y");
  EXPECT_EQ(decoded[1].Find("c"), nullptr);
}

TEST(RecordTest, SetAndEraseLeaveSiblingsOfASharedLayoutUnchanged) {
  RecordDecoder decoder;
  Record first = *decoder.Decode(Serialized(EveryKind()));
  const Record sibling = *decoder.Decode(Serialized(EveryKind()));
  const std::string before = sibling.ToString();
  ASSERT_EQ(first.layout(), sibling.layout());
  first.Set("credits", Value::Integer(5));
  first.Set("added", Value::Integer(6));
  EXPECT_TRUE(first.Erase("title"));
  EXPECT_NE(first.layout(), sibling.layout());
  EXPECT_EQ(sibling.ToString(), before);
  EXPECT_EQ(first.GetOrNull("credits").AsInteger(), 5);
  EXPECT_FALSE(first.Has("title"));
  EXPECT_EQ(first.attribute(first.size() - 1), "added");
  // A copy shares the layout until one of the two changes.
  Record copy = sibling;
  EXPECT_EQ(copy.layout(), sibling.layout());
  copy.Erase(std::string(kFileAttribute));
  EXPECT_EQ(sibling.ToString(), before);
  EXPECT_EQ(copy.size(), sibling.size() - 1);
}

TEST(RecordTest, AttributeReaderFollowsLayoutChanges) {
  Record ab, ba;
  ab.Set("a", Value::Integer(1));
  ab.Set("b", Value::Integer(2));
  ba.Set("b", Value::Integer(3));
  ba.Set("a", Value::Integer(4));
  Record none;
  AttributeReader reader("a");
  EXPECT_EQ(reader.Find(ab)->AsInteger(), 1);
  EXPECT_EQ(reader.Find(ba)->AsInteger(), 4);
  EXPECT_EQ(reader.Find(none), nullptr);
  EXPECT_EQ(reader.Find(ab)->AsInteger(), 1);
}

}  // namespace
}  // namespace mlds::abdm
