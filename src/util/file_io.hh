/**
 * @file
 * Whole-file atomic replacement: the one writer behind every JSON and
 * CSV output file and every record-log rewrite.
 */
#pragma once

#include <string>
#include <string_view>

#include "util/status.hh"

namespace mlpsim {

/**
 * Replace @p path with @p data atomically: write a temp file beside it
 * (`<path>.tmp.<pid>`, so two processes writing one path never share
 * a temp file), flush and close it — both checked — then rename it
 * over @p path. Readers see either the old contents or the new ones,
 * never a partial file; on any failure the temp file is removed.
 */
Status writeFileAtomic(const std::string &path, std::string_view data);

} // namespace mlpsim
