#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/exit_codes.hpp"

namespace g10::cli {
namespace {

enum class Color { kRed, kBlue };

struct Values {
  bool on = false;
  bool strict = true;
  int count = 3;
  std::int64_t big = 0;
  std::uint64_t seed = 9;
  double fraction = 0.5;
  std::string path = "default";
  std::string engine = "pregel";
  Color color = Color::kRed;
  std::vector<std::string> items;
};

constexpr std::string_view kEngines[] = {"pregel", "gas"};

Table make_table(Values& v) {
  return {"tool --path <p> [flags]",
          {{"--on", Switch{&v.on}, "turn it on"},
           {"--lax", Switch{&v.strict, false}, "turn strict off"},
           {"--count N", &v.count, "a count", 1, kMaxConcurrency},
           {"--big N", &v.big, "a wide integer", 0},
           {"--seed S", &v.seed, "a seed", 0},
           {"--fraction F", &v.fraction, "a fraction", 0.0, 1.0},
           {"--path <p>", &v.path, "a path"},
           {"--engine", one_of(&v.engine, kEngines), "an engine"},
           {"--color",
            one_of(&v.color, {{"red", Color::kRed}, {"blue", Color::kBlue}}),
            "a color"},
           {"--item X",
            Setter([&v](const std::string& value) {
              if (value == "spec-error") return kExitParseFailure;
              if (value.empty()) return kExitBadArgs;
              v.items.push_back(value);
              return kExitOk;
            }),
            "add an item; repeatable"},
           {.name = "--secret N",
            .target = &v.count,
            .help = "hidden count",
            .lo = 1,
            .hidden = true}}};
}

/// Parses `args` (without the program name) into fresh Values.
int parse_args(std::vector<const char*> args, Values& v,
               std::vector<std::string>* positional = nullptr) {
  args.insert(args.begin(), "tool");
  return parse(make_table(v), static_cast<int>(args.size()), args.data(),
               positional);
}

TEST(CliTest, StoresEveryTargetKind) {
  Values v;
  ASSERT_EQ(parse_args({"--on", "--lax", "--count", "7", "--big",
                        "9000000000", "--seed", "42", "--fraction", "0.25",
                        "--path", "-x", "--engine", "gas", "--color", "blue",
                        "--item", "a", "--item", "b"},
                       v),
            kExitOk);
  EXPECT_TRUE(v.on);
  EXPECT_FALSE(v.strict);
  EXPECT_EQ(v.count, 7);
  EXPECT_EQ(v.big, 9000000000);
  EXPECT_EQ(v.seed, 42u);
  EXPECT_EQ(v.fraction, 0.25);
  EXPECT_EQ(v.path, "-x");  // a value may start with '-'
  EXPECT_EQ(v.engine, "gas");
  EXPECT_EQ(v.color, Color::kBlue);
  EXPECT_EQ(v.items, (std::vector<std::string>{"a", "b"}));
}

TEST(CliTest, DefaultsStayWhenAFlagIsAbsentAndLaterFlagsWin) {
  Values v;
  ASSERT_EQ(parse_args({"--count", "2", "--count", "5"}, v), kExitOk);
  EXPECT_EQ(v.count, 5);
  EXPECT_EQ(v.seed, 9u);
  EXPECT_EQ(v.path, "default");
  EXPECT_EQ(v.color, Color::kRed);
}

TEST(CliTest, RangesAreInclusive) {
  for (const char* ok : {"1", "1024", " 12"}) {
    Values v;
    EXPECT_EQ(parse_args({"--count", ok}, v), kExitOk) << ok;
  }
  for (const char* ok : {"0", "1", "1e-300"}) {
    Values v;
    EXPECT_EQ(parse_args({"--fraction", ok}, v), kExitOk) << ok;
  }
}

TEST(CliTest, BadValuesAreBadArgs) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"--count", "0"},          {"--count", "1025"},
      {"--count", "abc"},        {"--count", "2x"},
      {"--count", "1.5"},        {"--count", ""},
      {"--count", "2147483648"}, {"--count", "99999999999999999999"},
      {"--big", "-1"},           {"--seed", "-1"},
      {"--fraction", "nan"},     {"--fraction", "inf"},
      {"--fraction", "-0.1"},    {"--fraction", "1.0000001"},
      {"--fraction", "x"},       {"--engine", "spark"},
      {"--engine", "PREGEL"},    {"--color", ""},
      {"--item", ""},            {"--secret", "0"},
  };
  for (const auto& [flag, value] : cases) {
    Values v;
    EXPECT_EQ(parse_args({flag, value}, v), kExitBadArgs)
        << flag << ' ' << value;
  }
}

TEST(CliTest, DoubleFlagsRefuseNonFiniteByDefault) {
  double value = 0.0;
  const Table table{"t", {{"--x F", &value, "any finite number"}}};
  for (const char* text : {"nan", "inf", "-inf", "1e999"}) {
    const char* argv[] = {"t", "--x", text};
    EXPECT_EQ(parse(table, 3, argv), kExitBadArgs) << text;
  }
  const char* argv[] = {"t", "--x", "-1e300"};
  EXPECT_EQ(parse(table, 3, argv), kExitOk);
  EXPECT_EQ(value, -1e300);
}

TEST(CliTest, UnknownFlagsMissingValuesAndStrayArgumentsAreBadArgs) {
  for (const std::vector<const char*>& args :
       std::vector<std::vector<const char*>>{{"--bogus"},
                                             {"--bogus", "1"},
                                             {"--count"},
                                             {"--on", "--count"},
                                             {"stray"},
                                             {"--on=1"},
                                             {"--count N", "1"},
                                             {"--help"}}) {
    Values v;
    EXPECT_EQ(parse_args(args, v), kExitBadArgs) << args.front();
  }
}

TEST(CliTest, SetterCodesPassThrough) {
  Values v;
  EXPECT_EQ(parse_args({"--item", "spec-error", "--bogus"}, v),
            kExitParseFailure);
  // The first bad argument decides the code.
  EXPECT_EQ(parse_args({"--bogus", "--item", "spec-error"}, v), kExitBadArgs);
}

TEST(CliTest, PositionalArgumentsGoToTheirListWhenAllowed) {
  Values v;
  std::vector<std::string> positional;
  ASSERT_EQ(parse_args({"a", "--on", "", "b"}, v, &positional), kExitOk);
  EXPECT_EQ(positional, (std::vector<std::string>{"a", "", "b"}));
  EXPECT_TRUE(v.on);
  EXPECT_EQ(parse_args({"-"}, v, &positional), kExitBadArgs);
  EXPECT_EQ(parse_args({"--bogus"}, v, &positional), kExitBadArgs);
}

TEST(CliTest, UsageListsVisibleFlagsInTableOrder) {
  Values v;
  EXPECT_EQ(usage(make_table(v)),
            "usage: tool --path <p> [flags]\n"
            "  --on                          turn it on\n"
            "  --lax                         turn strict off\n"
            "  --count N                     a count\n"
            "  --big N                       a wide integer\n"
            "  --seed S                      a seed\n"
            "  --fraction F                  a fraction\n"
            "  --path <p>                    a path\n"
            "  --engine pregel|gas           an engine\n"
            "  --color red|blue              a color\n"
            "  --item X                      add an item; repeatable\n");
}

TEST(CliTest, UsageWrapsALongFlagOntoItsOwnLine) {
  std::string s;
  const Table table{"t", {{"--a-rather-long-flag <long-value>", &s, "h"}}};
  EXPECT_EQ(usage(table),
            "usage: t\n"
            "  --a-rather-long-flag <long-value>\n"
            "                                h\n");
}

TEST(CliTest, PickKeepsTheSubsetsFlagsWithTheirValues) {
  Values v;
  const Table table = make_table(v);
  const std::vector<Flag> subset = {table.flags[0], table.flags[2],
                                    table.flags[9]};
  const char* argv[] = {"tool",  "--on",   "--path", "--count", "--count",
                        "4",     "--lax",  "--item", "a",       "--seed",
                        "--on"};
  // "--count" after --path is a value, and so is "--on" after --seed.
  EXPECT_EQ(pick(table, subset, 11, argv),
            (std::vector<std::string>{"--on", "--count", "4", "--item", "a"}));
}

}  // namespace
}  // namespace g10::cli
