/**
 * @file
 * Test support: scratch-file paths that a test's plain, ASan/UBSan and
 * TSan builds never share. ctest runs the three twins of one test as
 * separate entries, possibly at the same time, so a fixed path would
 * let one twin delete or append to another's file.
 */
#pragma once

#include <string>

#include <gtest/gtest.h>

namespace mlpsim::test {

/** ::testing::TempDir() + @p stem + this build's sanitizer suffix +
 *  @p extension. */
inline std::string
tempPath(const std::string &stem, const std::string &extension)
{
#if defined(__SANITIZE_THREAD__)
    const char *build = "_tsan";
#elif defined(__SANITIZE_ADDRESS__)
    const char *build = "_asan";
#else
    const char *build = "";
#endif
    return ::testing::TempDir() + stem + build + extension;
}

} // namespace mlpsim::test
