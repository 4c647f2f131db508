/**
 * @file
 * Tests for the machine statistics report (sim/report.hh) and for
 * the writer every report goes out through (common/atomic_file.hh).
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/atomic_file.hh"
#include "sim/report.hh"
#include "trace/zoo.hh"

using namespace pinte;

namespace
{

std::string
reportFor(MachineConfig m, const char *workload, InstCount insts)
{
    TraceGenerator gen(findWorkload(workload));
    System sys(m, {&gen});
    sys.warmup(5000);
    sys.runUntilCore0(insts);
    std::ostringstream os;
    printMachineReport(sys, os);
    return os.str();
}

} // namespace

TEST(Report, ContainsAllSections)
{
    const std::string r =
        reportFor(MachineConfig::scaled(), "450.soplex", 10000);
    EXPECT_NE(r.find("==== cores ===="), std::string::npos);
    EXPECT_NE(r.find("==== caches ===="), std::string::npos);
    EXPECT_NE(r.find("LLC ("), std::string::npos);
    EXPECT_NE(r.find("==== LLC occupancy ===="), std::string::npos);
    EXPECT_NE(r.find("==== DRAM ===="), std::string::npos);
    EXPECT_NE(r.find("row-buffer hit rate"), std::string::npos);
}

TEST(Report, PInteSectionOnlyWhenEnabled)
{
    const std::string without =
        reportFor(MachineConfig::scaled(), "450.soplex", 10000);
    EXPECT_EQ(without.find("==== PInTE ===="), std::string::npos);

    MachineConfig m = MachineConfig::scaled();
    m.pinte.pInduce = 0.2;
    const std::string with = reportFor(m, "450.soplex", 10000);
    EXPECT_NE(with.find("==== PInTE ===="), std::string::npos);
}

TEST(Report, ListsEveryCacheLevel)
{
    const std::string r =
        reportFor(MachineConfig::scaled(), "435.gromacs", 10000);
    EXPECT_NE(r.find("L1D.0"), std::string::npos);
    EXPECT_NE(r.find("L2.0"), std::string::npos);
}

TEST(Report, MultiCoreRowsPresent)
{
    TraceGenerator a(findWorkload("450.soplex"));
    TraceGenerator b(findWorkload("470.lbm"));
    System sys(MachineConfig::scaled(2), {&a, &b});
    sys.warmup(3000);
    sys.runUntilCore0(8000);
    std::ostringstream os;
    printMachineReport(sys, os);
    const std::string r = os.str();
    EXPECT_NE(r.find("L1D.1"), std::string::npos);
    EXPECT_NE(r.find("L2.1"), std::string::npos);
}

TEST(Report, EngineRowsMatchScope)
{
    MachineConfig m = MachineConfig::scaled();
    m.pinte.pInduce = 0.3;
    m.pinteScope = PInteScope::L2AndLlc;
    TraceGenerator gen(findWorkload("450.soplex"));
    System sys(m, {&gen});
    sys.warmup(3000);
    sys.runUntilCore0(8000);
    std::ostringstream os;
    printMachineReport(sys, os);
    // Two engines (LLC + the core's L2) -> rows "0" and "1" in the
    // PInTE table; crude but effective check on the row count.
    const std::string r = os.str();
    const auto pinte_at = r.find("==== PInTE ====");
    ASSERT_NE(pinte_at, std::string::npos);
    const std::string tail = r.substr(pinte_at);
    EXPECT_NE(tail.find("\n0  "), std::string::npos);
    EXPECT_NE(tail.find("\n1  "), std::string::npos);
}

namespace
{

std::string
atomicPath(const std::string &name)
{
    const std::string path = testing::TempDir() + "pinte_atomic_" + name;
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
    return path;
}

/**
 * Write `payload` through an AtomicFile on `target`, a path that
 * resolves to the FIFO `fifo`, while a thread drains the FIFO; return
 * what the thread read. The read end is open before the writer starts,
 * so the writer's open does not block. A FIFO reads as EOF whenever no
 * writer has it open (before the writer opens it, too), so the thread
 * stops at an EOF seen after the writer is done: a writer that never
 * opens the FIFO leaves it with nothing, not blocked.
 */
std::string
writeThroughFifo(const std::string &fifo, const std::string &target,
                 const std::string &payload)
{
    const int fd = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
    EXPECT_GE(fd, 0);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
    std::atomic<bool> written{false};
    std::string got;
    std::thread reader([&] {
        char buf[4096];
        for (;;) {
            const bool done = written.load();
            const ssize_t n = ::read(fd, buf, sizeof buf);
            if (n > 0)
                got.append(buf, static_cast<std::size_t>(n));
            else if (n < 0 || done)
                break;
            else
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    {
        AtomicFile f(target);
        f.stream() << payload;
        f.commit();
    }
    written = true;
    reader.join();
    ::close(fd);
    return got;
}

} // namespace

TEST(AtomicFile, WritesAFifoTargetInPlace)
{
    const std::string fifo = atomicPath("fifo");
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    // More than a pipe buffer: the writer streams into the reader.
    const std::string payload(200000, 'x');
    EXPECT_EQ(writeThroughFifo(fifo, fifo, payload), payload);
    EXPECT_TRUE(
        std::filesystem::is_fifo(std::filesystem::symlink_status(fifo)));
    EXPECT_FALSE(std::filesystem::exists(fifo + ".tmp"));
    std::filesystem::remove(fifo);
}

TEST(AtomicFile, KeepsASymlinkToAFifo)
{
    const std::string fifo = atomicPath("fifo_target");
    const std::string link = atomicPath("fifo_link");
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    std::filesystem::create_symlink(fifo, link);
    EXPECT_EQ(writeThroughFifo(fifo, link, "report\n"), "report\n");
    EXPECT_TRUE(
        std::filesystem::is_symlink(std::filesystem::symlink_status(link)));
    EXPECT_TRUE(std::filesystem::is_fifo(std::filesystem::status(link)));
    EXPECT_FALSE(std::filesystem::exists(link + ".tmp"));
    EXPECT_FALSE(std::filesystem::exists(fifo + ".tmp"));
    std::filesystem::remove(link);
    std::filesystem::remove(fifo);
}

TEST(AtomicFile, ReplacesARegularTargetAtomically)
{
    const std::string path = atomicPath("regular");
    std::ofstream(path) << "old";
    struct stat before;
    ASSERT_EQ(::stat(path.c_str(), &before), 0);
    {
        AtomicFile f(path);
        f.stream() << "new";
        f.stream().flush();
        // Until commit, readers see the old content and the new one
        // sits in the temp.
        EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
        std::ifstream in(path);
        EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}),
                  "old");
        f.commit();
    }
    std::ifstream in(path);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), "new");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    struct stat after;
    ASSERT_EQ(::stat(path.c_str(), &after), 0);
    EXPECT_NE(after.st_ino, before.st_ino); // renamed over, not rewritten
    std::filesystem::remove(path);
}
