#include "file_io.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace mlpsim {

Status
writeFileAtomic(const std::string &path, std::string_view data)
{
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::FILE *out = std::fopen(tmp.c_str(), "wb");
    if (!out)
        return Status::ioError("cannot create '", tmp,
                               "': ", std::strerror(errno));
    const bool wrote =
        std::fwrite(data.data(), 1, data.size(), out) == data.size() &&
        std::fflush(out) == 0;
    const bool closed = std::fclose(out) == 0;
    if (!wrote || !closed) {
        std::remove(tmp.c_str());
        return Status::ioError("error writing '", tmp, "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        Status st = Status::ioError("cannot rename '", tmp, "' to '",
                                    path, "': ", std::strerror(errno));
        std::remove(tmp.c_str());
        return st;
    }
    return Status::okStatus();
}

} // namespace mlpsim
