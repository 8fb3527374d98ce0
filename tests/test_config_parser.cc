#include "common/config_parser.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace s4d {
namespace {

TEST(ConfigParser, BasicSectionsAndKeys) {
  ConfigParser config;
  ASSERT_TRUE(config
                  .Parse("top = 1\n"
                         "[alpha]\n"
                         "x = hello\n"
                         "y = 2\n"
                         "[beta]\n"
                         "x = world\n")
                  .ok());
  EXPECT_EQ(config.GetString("", "top"), "1");
  EXPECT_EQ(config.GetString("alpha", "x"), "hello");
  EXPECT_EQ(config.GetInt("alpha", "y"), 2);
  EXPECT_EQ(config.GetString("beta", "x"), "world");
  EXPECT_FALSE(config.Has("beta", "y"));
  EXPECT_EQ(config.entry_count(), 4u);
}

TEST(ConfigParser, CommentsAndWhitespace) {
  ConfigParser config;
  ASSERT_TRUE(config
                  .Parse("# full line comment\n"
                         "  [ s ]  \n"
                         "  key  =  value with spaces  ; trailing comment\n"
                         "\n"
                         "empty =\n")
                  .ok());
  EXPECT_EQ(config.GetString("s", "key"), "value with spaces");
  EXPECT_EQ(config.GetString("s", "empty"), "");
}

TEST(ConfigParser, SyntaxErrorsReportLine) {
  ConfigParser config;
  const Status bad_section = config.Parse("[unterminated\n");
  EXPECT_FALSE(bad_section.ok());
  EXPECT_NE(bad_section.message().find("line 1"), std::string::npos);

  const Status missing_eq = config.Parse("[ok]\njust words\n");
  EXPECT_FALSE(missing_eq.ok());
  EXPECT_NE(missing_eq.message().find("line 2"), std::string::npos);

  EXPECT_FALSE(config.Parse("[s]\n= novalue\n").ok());
}

TEST(ConfigParser, TypedGetters) {
  ConfigParser config;
  ASSERT_TRUE(config
                  .Parse("[t]\n"
                         "i = -42\n"
                         "d = 2.5\n"
                         "b1 = true\nb2 = off\nb3 = 1\n"
                         "junk = 12ab\n")
                  .ok());
  EXPECT_EQ(config.GetInt("t", "i"), -42);
  EXPECT_EQ(config.GetDouble("t", "d"), 2.5);
  EXPECT_EQ(config.GetBool("t", "b1"), true);
  EXPECT_EQ(config.GetBool("t", "b2"), false);
  EXPECT_EQ(config.GetBool("t", "b3"), true);
  EXPECT_EQ(config.GetInt("t", "junk"), std::nullopt);
  EXPECT_EQ(config.GetInt("t", "missing"), std::nullopt);
}

TEST(ConfigParser, SizeSuffixes) {
  ConfigParser config;
  ASSERT_TRUE(config
                  .Parse("[s]\n"
                         "plain = 4096\n"
                         "kilo = 64k\nmega = 2M\ngiga = 1g\nbad = k\n")
                  .ok());
  EXPECT_EQ(config.GetSize("s", "plain"), 4096);
  EXPECT_EQ(config.GetSize("s", "kilo"), 64 * KiB);
  EXPECT_EQ(config.GetSize("s", "mega"), 2 * MiB);
  EXPECT_EQ(config.GetSize("s", "giga"), 1 * GiB);
  EXPECT_EQ(config.GetSize("s", "bad"), std::nullopt);
}

TEST(ConfigParser, DurationSuffixes) {
  ConfigParser config;
  ASSERT_TRUE(config
                  .Parse("[d]\n"
                         "a = 250ms\nb = 2s\nc = 100us\ne = 50ns\nf = 42\n"
                         "g = 1.5ms\n")
                  .ok());
  EXPECT_EQ(config.GetDuration("d", "a"), FromMillis(250));
  EXPECT_EQ(config.GetDuration("d", "b"), FromSeconds(2));
  EXPECT_EQ(config.GetDuration("d", "c"), FromMicros(100));
  EXPECT_EQ(config.GetDuration("d", "e"), 50);
  EXPECT_EQ(config.GetDuration("d", "f"), 42);
  EXPECT_EQ(config.GetDuration("d", "g"), FromMillis(1.5));
}

// A number with no finite value, or a duration SimTime cannot hold, is not
// a value: the typed getters say nullopt instead of passing NaN on or
// converting out of range (undefined behaviour).
TEST(ConfigParser, NonFiniteAndOutOfRangeNumbersDoNotParse) {
  ConfigParser config;
  ASSERT_TRUE(config
                  .Parse("[n]\n"
                         "nan = nan\ninf = inf\nneg_inf = -inf\n"
                         "nan_ms = nanms\ninf_ms = infms\nhuge_s = 1e300s\n"
                         "huge = 1e19\nbig_s = 9.3e9s\nmax_ok = 9.2e18\n")
                  .ok());
  EXPECT_EQ(config.GetDouble("n", "nan"), std::nullopt);
  EXPECT_EQ(config.GetDouble("n", "inf"), std::nullopt);
  EXPECT_EQ(config.GetDouble("n", "neg_inf"), std::nullopt);
  EXPECT_EQ(config.GetDuration("n", "nan"), std::nullopt);
  EXPECT_EQ(config.GetDuration("n", "inf"), std::nullopt);
  EXPECT_EQ(config.GetDuration("n", "nan_ms"), std::nullopt);
  EXPECT_EQ(config.GetDuration("n", "inf_ms"), std::nullopt);
  EXPECT_EQ(config.GetDuration("n", "huge_s"), std::nullopt);
  EXPECT_EQ(config.GetDuration("n", "huge"), std::nullopt);
  EXPECT_EQ(config.GetDuration("n", "big_s"), std::nullopt)
      << "9.3e9 s is 9.3e18 ns, past 2^63 ns";
  EXPECT_EQ(config.GetDuration("n", "max_ok"),
            static_cast<SimTime>(9.2e18))
      << "just below 2^63 ns still fits";
}

TEST(ConfigParser, DefaultsAndSet) {
  ConfigParser config;
  ASSERT_TRUE(config.Parse("[x]\nk = 7\n").ok());
  EXPECT_EQ(config.IntOr("x", "k", 0), 7);
  EXPECT_EQ(config.IntOr("x", "nope", 13), 13);
  EXPECT_EQ(config.SizeOr("x", "nope", 5 * MiB), 5 * MiB);
  EXPECT_EQ(config.StringOr("x", "nope", "fb"), "fb");
  config.Set("x", "k", "9");
  EXPECT_EQ(config.IntOr("x", "k", 0), 9);
  config.Set("y", "new", "64k");
  EXPECT_EQ(config.SizeOr("y", "new", 0), 64 * KiB);
}

TEST(ConfigParser, LaterKeysOverrideEarlier) {
  ConfigParser config;
  ASSERT_TRUE(config.Parse("[s]\nk = 1\nk = 2\n").ok());
  EXPECT_EQ(config.GetInt("s", "k"), 2);
}

TEST(ConfigParser, ParseFile) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("s4d_cfg_" + std::to_string(::getpid()) + ".ini");
  {
    std::ofstream out(path);
    out << "[w]\nranks = 8\n";
  }
  ConfigParser config;
  ASSERT_TRUE(config.ParseFile(path.string()).ok());
  EXPECT_EQ(config.GetInt("w", "ranks"), 8);
  std::filesystem::remove(path);

  ConfigParser missing;
  EXPECT_EQ(missing.ParseFile("/nonexistent/path.ini").code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace s4d
