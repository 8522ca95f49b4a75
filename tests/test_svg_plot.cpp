#include "util/svg_plot.h"

#include <filesystem>
#include <limits>

#include <gtest/gtest.h>

namespace ftb::util {
namespace {

std::size_t count_substring(const std::string& text, const std::string& sub) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(sub); pos != std::string::npos;
       pos = text.find(sub, pos + sub.size())) {
    ++count;
  }
  return count;
}

TEST(SvgChart, ContainsCanvasTitleAndSeries) {
  const Series series[] = {
      {"alpha", {0.0, 0.5, 1.0}, '*'},
      {"beta", {1.0, 0.5, 0.0}, 'o'},
  };
  using namespace std::string_literals;
  SvgOptions options;
  options.title = "Shape <check>";
  options.x_label = "x"s;
  options.y_label = "y"s;
  const std::string svg = svg_chart(series, options);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("alpha"), std::string::npos);
  EXPECT_NE(svg.find("beta"), std::string::npos);
  // XML-escaped title, never raw angle brackets inside text.
  EXPECT_NE(svg.find("Shape &lt;check&gt;"), std::string::npos);
  // One polyline per series (no NaN breaks).
  EXPECT_EQ(count_substring(svg, "<polyline"), 2u);
  // Balanced-ish structure: every tag we open is self-closing or closed.
  EXPECT_EQ(count_substring(svg, "<svg"), 1u);
}

TEST(SvgChart, NanBreaksPolylines) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Series series[] = {{"gappy", {0.0, 1.0, nan, 1.0, 0.0}, '*'}};
  const std::string svg = svg_chart(series);
  EXPECT_EQ(count_substring(svg, "<polyline"), 2u);  // two segments
}

TEST(SvgChart, ScatterUsesCircles) {
  const Series series[] = {{"dots", {0.1, 0.2, 0.3, 0.4}, '*'}};
  SvgOptions options;
  options.scatter = true;
  const std::string svg = svg_chart(series, options);
  EXPECT_EQ(count_substring(svg, "<circle"), 4u);
  EXPECT_EQ(count_substring(svg, "<polyline"), 0u);
}

TEST(SvgChart, EmptySeriesStillValid) {
  const Series series[] = {{"empty", {}, '*'}};
  const std::string svg = svg_chart(series);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(SvgHistogram, BarsMatchNonEmptyBins) {
  Histogram histogram(0.0, 1.0, 4);
  histogram.add(0.1);
  histogram.add(0.1);
  histogram.add(0.9);
  const std::string svg = svg_histogram(histogram);
  // Background rect + frame rect + 2 bars.
  EXPECT_EQ(count_substring(svg, "<rect"), 4u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(SvgFile, WriteAndFailurePaths) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("ftb_svg_" + std::to_string(::getpid()) + ".svg");
  const Series series[] = {{"s", {0.0, 1.0}, '*'}};
  ASSERT_TRUE(write_svg_file(path.string(), svg_chart(series)));
  EXPECT_GT(std::filesystem::file_size(path), 100u);
  std::filesystem::remove(path);
  EXPECT_FALSE(write_svg_file("/nonexistent-dir/x.svg", "<svg/>"));
}

}  // namespace
}  // namespace ftb::util
