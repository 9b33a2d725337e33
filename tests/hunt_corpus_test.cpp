// Replays every committed counterexample in tests/hunt_corpus/. Each file
// must parse, already be in canonical form, and reproduce its recorded
// verdict class when re-run. A fixed misdiagnosis updates the file's
// expected block in the same PR — corpus files are never silently deleted.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/hunter.hpp"

#ifndef HAWKEYE_HUNT_CORPUS_DIR
#error "HAWKEYE_HUNT_CORPUS_DIR must point at the committed corpus"
#endif

namespace hawkeye::eval {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  const fs::path dir{HAWKEYE_HUNT_CORPUS_DIR};
  if (fs::exists(dir)) {
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".txt") files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(HuntCorpusTest, CorpusIsCommitted) {
  // The seed campaign of this corpus found real cases; the directory must
  // never be emptied out from under the replay suite.
  EXPECT_GE(corpus_files().size(), 5u);
}

TEST(HuntCorpusTest, EveryCaseParsesCanonicallyAndReplays) {
  for (const fs::path& p : corpus_files()) {
    SCOPED_TRACE(p.filename().string());
    const std::string bytes = slurp(p);
    HuntCase c;
    ASSERT_NO_THROW(c = parse_case(bytes)) << "corpus file fails to parse";
    EXPECT_EQ(serialize_case(c), bytes) << "corpus file not in canonical form";
    ASSERT_FALSE(c.expected_class.empty())
        << "corpus file missing its expected block";
    const ReplayOutcome out = replay_case(c);
    EXPECT_TRUE(out.matches_expected) << out.detail;
  }
}

TEST(HuntCorpusTest, MutatedCasesParseOrThrowInvalidArgument) {
  // Deterministic mutants of every committed case: each must parse or be
  // rejected with std::invalid_argument (no other exception, no crash),
  // and whatever parses must re-serialize to a fixed point.
  const auto join = [](const std::vector<std::string>& lines) {
    std::string out;
    for (const std::string& l : lines) out += l + '\n';
    return out;
  };
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const fs::path& p : corpus_files()) {
    SCOPED_TRACE(p.filename().string());
    std::vector<std::string> lines;
    std::istringstream in(slurp(p));
    for (std::string l; std::getline(in, l);) lines.push_back(l);

    std::vector<std::string> mutants{join(lines) + "fuzz.unknown_key=1\n"};
    for (std::size_t i = 0; i < lines.size(); ++i) {
      mutants.push_back(
          join(std::vector<std::string>(lines.begin(), lines.begin() + i)));
      std::vector<std::string> m = lines;
      m.insert(m.begin() + i, lines[i]);
      mutants.push_back(join(m));
      const std::size_t eq = lines[i].find('=');
      if (eq == std::string::npos) continue;
      m = lines;
      m[i].erase(eq, 1);
      mutants.push_back(join(m));
      for (const char* v : {"x", "-1", "99999999999999999999"}) {
        m = lines;
        m[i] = lines[i].substr(0, eq + 1) + v;
        mutants.push_back(join(m));
      }
    }
    for (const std::string& m : mutants) {
      std::string once;
      try {
        once = serialize_case(parse_case(m));
      } catch (const std::invalid_argument&) {
        ++rejected;
        continue;
      }
      ++parsed;
      EXPECT_EQ(serialize_case(parse_case(once)), once) << m;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace hawkeye::eval
