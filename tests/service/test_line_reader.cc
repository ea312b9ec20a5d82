/**
 * @file
 * LineReader: line views over a file descriptor, across read-chunk
 * boundaries, with '\r' stripping and the per-line cap.
 */

#include <cstdio>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "service/socket_util.hh"

namespace jitsched {
namespace {

/** A temporary file holding @p bytes, positioned at its start. */
std::unique_ptr<FILE, int (*)(FILE *)>
fileWith(const std::string &bytes)
{
    std::unique_ptr<FILE, int (*)(FILE *)> f(std::tmpfile(), &std::fclose);
    EXPECT_NE(f, nullptr);
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f.get()),
              bytes.size());
    std::fflush(f.get());
    std::rewind(f.get());
    return f;
}

TEST(LineReader, LinesSpanReadChunks)
{
    // Longer than one 64 KiB read, so the line is stitched from two.
    const std::string big(100'000, 'x');
    const auto f = fileWith("\n" + big + "\nend\r\nmid\rline\ntail");
    LineReader reader(fileno(f.get()));
    EXPECT_EQ(reader.readLine(), "");
    EXPECT_EQ(reader.readLine(), big);
    EXPECT_EQ(reader.readLine(), "end");
    EXPECT_EQ(reader.readLine(), "mid\rline");
    EXPECT_EQ(reader.readLine(), "tail"); // unterminated, kept as-is
    EXPECT_FALSE(reader.readLine().has_value());
    EXPECT_FALSE(reader.overflowed());
}

TEST(LineReader, ManyShortLinesAcrossChunks)
{
    std::string bytes;
    for (int i = 0; i < 50'000; ++i)
        bytes += std::to_string(i) + "\n";
    const auto f = fileWith(bytes);
    LineReader reader(fileno(f.get()));
    for (int i = 0; i < 50'000; ++i)
        ASSERT_EQ(reader.readLine(), std::to_string(i));
    EXPECT_FALSE(reader.readLine().has_value());
}

TEST(LineReader, OversizedLineOverflows)
{
    const auto f = fileWith("ok\n" + std::string(5000, 'y'));
    LineReader reader(fileno(f.get()), 1000);
    EXPECT_EQ(reader.readLine(), "ok");
    EXPECT_FALSE(reader.readLine().has_value());
    EXPECT_TRUE(reader.overflowed());
}

} // anonymous namespace
} // namespace jitsched
