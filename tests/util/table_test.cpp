/** @file Text-table rendering. */
#include <gtest/gtest.h>

#include "util/table.hh"

namespace mlpsim::test {

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(1.234567), "1.23");
    EXPECT_EQ(TextTable::num(1.235, 2), "1.24");
    EXPECT_EQ(TextTable::num(3.0, 0), "3");
    EXPECT_EQ(TextTable::num(-0.5, 1), "-0.5");
}

TEST(TextTable, RendersHeaderAndRule)
{
    TextTable t({"a", "bb"});
    const std::string out = t.render();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("bb"), std::string::npos);
    EXPECT_NE(out.find("--"), std::string::npos);
}

TEST(TextTable, ColumnsAreAligned)
{
    TextTable t({"name", "v"});
    t.addRow({"x", "1"});
    t.addRow({"longername", "2"});
    const std::string out = t.render();
    // Every line is as wide as the widest cell per column (+separator).
    size_t pos = 0, prev_len = std::string::npos;
    while (pos < out.size()) {
        const size_t eol = out.find('\n', pos);
        const size_t len = eol - pos;
        if (prev_len != std::string::npos) {
            EXPECT_EQ(len, prev_len);
        }
        prev_len = len;
        pos = eol + 1;
    }
}

TEST(TextTable, RaggedRowsAreTolerated)
{
    TextTable t({"a", "b", "c"});
    t.addRow({"1"});
    t.addRow({"1", "2", "3"});
    EXPECT_NO_THROW({ const auto s = t.render(); (void)s; });
}

TEST(TextTable, ExtraCellsBeyondHeaderAreIgnored)
{
    TextTable t({"a"});
    t.addRow({"1", "2", "3"});
    const std::string out = t.render();
    EXPECT_EQ(out.find("2"), std::string::npos);
}

} // namespace mlpsim::test
