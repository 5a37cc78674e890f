/**
 * @file
 * The durable evaluation-cache snapshot layer (src/serve/snapshot.hh):
 * the varint/XOR-delta codec must be bitwise lossless, the header/blob
 * file layout must reject every truncation and bit flip it is shown
 * (header damage at index time, blob damage at entry-decode time,
 * never a crash), version skew must come back as failed-precondition
 * (the "cold start, do not guess" signal), sections must stay
 * partitioned per device, the model fingerprint must move when the
 * model does, and a failed save must leave the previous snapshot file
 * byte-for-byte intact (temp file + atomic rename).
 *
 * Fuzz inputs are seeded through sweepSubstream so a failure
 * reproduces from the printed task index alone.
 */

#include "serve/snapshot.hh"

#include <bit>
#include <cstdio>
#include <limits>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "harmonia/core/sweep.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;
using namespace harmonia::serve;

namespace
{

/** The default device and its lattice, built once: probe-running the
 * model is what makes these objects mildly expensive. */
struct Fixture
{
    GpuDevice device;
    ConfigSweep sweep;
    Fixture() : device(), sweep(device, SweepOptions{}) {}
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

/** Real model output for @p kernelIdx at a few lattice points — the
 * codec is exercised on the bit patterns it actually stores. */
std::vector<PointResult>
realResults(size_t kernelIdx, int iteration, size_t count)
{
    const std::vector<Application> suite = standardSuite();
    std::vector<const KernelProfile *> kernels;
    for (const Application &app : suite)
        for (const KernelProfile &k : app.kernels)
            kernels.push_back(&k);
    const KernelProfile &kernel =
        *kernels[kernelIdx % kernels.size()];
    const std::vector<HardwareConfig> &configs =
        fixture().sweep.configs();
    std::vector<PointResult> results;
    for (size_t i = 0; i < count; ++i) {
        const HardwareConfig &cfg = configs[(i * 37) % configs.size()];
        results.push_back(
            fixture().device.run(kernel, iteration, cfg).point());
    }
    return results;
}

/** Bitwise equality of every serialized field. */
void
expectBitwiseEqual(const PointResult &a, const PointResult &b,
                   const std::string &what)
{
    auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    EXPECT_EQ(bits(a.timeS), bits(b.timeS)) << what;
    EXPECT_EQ(bits(a.powerW), bits(b.powerW)) << what;
    EXPECT_EQ(bits(a.cardEnergy), bits(b.cardEnergy)) << what;
    EXPECT_EQ(bits(a.gpuEnergy), bits(b.gpuEnergy)) << what;
    EXPECT_EQ(bits(a.memEnergy), bits(b.memEnergy)) << what;
}

/** A two-device snapshot with sparse, non-contiguous slot sets. */
Snapshot
sampleSnapshot()
{
    Snapshot snap;
    DeviceSection hd;
    hd.device = "hd7970";
    hd.fingerprint = 0x1234abcd5678ef01ull;
    hd.latticeSize =
        static_cast<uint32_t>(fixture().sweep.configs().size());
    for (int e = 0; e < 3; ++e) {
        SnapshotEntry entry;
        entry.kernel = "Kernel." + std::to_string(e);
        entry.iteration = e;
        const size_t points = 5 + 7 * static_cast<size_t>(e);
        entry.results = realResults(static_cast<size_t>(e), e, points);
        for (size_t i = 0; i < points; ++i)
            entry.slots.push_back(
                static_cast<uint32_t>(i * 11 + static_cast<size_t>(e)));
        hd.entries.push_back(std::move(entry));
    }
    snap.devices.push_back(std::move(hd));

    DeviceSection other;
    other.device = "other-device";
    other.fingerprint = 0xfeedface0badf00dull;
    other.latticeSize = 64;
    SnapshotEntry entry;
    entry.kernel = "Solo.Kernel";
    entry.iteration = 0;
    entry.results = realResults(7, 0, 4);
    entry.slots = {0, 9, 33, 63};
    other.entries.push_back(std::move(entry));
    snap.devices.push_back(std::move(other));
    return snap;
}

void
expectSnapshotsEqual(const Snapshot &a, const Snapshot &b)
{
    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (size_t d = 0; d < a.devices.size(); ++d) {
        const DeviceSection &da = a.devices[d];
        const DeviceSection &db = b.devices[d];
        EXPECT_EQ(da.device, db.device);
        EXPECT_EQ(da.fingerprint, db.fingerprint);
        EXPECT_EQ(da.latticeSize, db.latticeSize);
        ASSERT_EQ(da.entries.size(), db.entries.size());
        for (size_t e = 0; e < da.entries.size(); ++e) {
            const SnapshotEntry &ea = da.entries[e];
            const SnapshotEntry &eb = db.entries[e];
            EXPECT_EQ(ea.kernel, eb.kernel);
            EXPECT_EQ(ea.iteration, eb.iteration);
            EXPECT_EQ(ea.slots, eb.slots);
            ASSERT_EQ(ea.results.size(), eb.results.size());
            for (size_t i = 0; i < ea.results.size(); ++i)
                expectBitwiseEqual(ea.results[i], eb.results[i],
                                   da.device + "/" + ea.kernel +
                                       " point " +
                                       std::to_string(i));
        }
    }
}

std::string
tmpPath(const std::string &stem)
{
    return "/tmp/harmonia_test_snapshot_" + stem + "." +
           std::to_string(static_cast<long>(getpid())) + ".snap";
}

} // namespace

// ---------------------------------------------------------------- wire

TEST(SnapshotWire, VarintRoundTrip)
{
    const uint64_t values[] = {0,
                               1,
                               0x7f,
                               0x80,
                               0x3fff,
                               0x4000,
                               0xffffffffull,
                               0x123456789abcdefull,
                               ~0ull};
    std::string buf;
    for (const uint64_t v : values)
        wire::putVarint(buf, v);
    std::string_view in = buf;
    for (const uint64_t v : values) {
        uint64_t got = 0;
        ASSERT_TRUE(wire::getVarint(in, &got));
        EXPECT_EQ(v, got);
    }
    EXPECT_TRUE(in.empty());
}

TEST(SnapshotWire, VarintRejectsTruncation)
{
    std::string buf;
    wire::putVarint(buf, ~0ull);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
        std::string_view in(buf.data(), cut);
        uint64_t got = 0;
        EXPECT_FALSE(wire::getVarint(in, &got)) << "cut " << cut;
    }
}

TEST(SnapshotWire, VarintRejectsOverlongEncoding)
{
    // Eleven continuation bytes cannot be a valid u64 varint.
    std::string buf(11, static_cast<char>(0x80));
    buf.push_back(0x01);
    std::string_view in = buf;
    uint64_t got = 0;
    EXPECT_FALSE(wire::getVarint(in, &got));
}

TEST(SnapshotWire, DeltaDoubleLanesAreLossless)
{
    // Pathological bit patterns, interleaved across two lanes the way
    // two fields of consecutive results would be.
    const double specials[] = {0.0,
                               -0.0,
                               1.0,
                               -1.0,
                               1e-308, // Denormal territory.
                               1e308,
                               3.141592653589793,
                               std::bit_cast<double>(~0ull)};
    std::string buf;
    wire::DeltaChain enc;
    for (const double a : specials) {
        for (const double b : specials) {
            enc.cursor = 0;
            wire::putDeltaDouble(buf, a, &enc);
            wire::putDeltaDouble(buf, b, &enc);
        }
    }
    std::string_view in = buf;
    wire::DeltaChain dec;
    for (const double a : specials) {
        for (const double b : specials) {
            dec.cursor = 0;
            double ga = 0.0, gb = 0.0;
            ASSERT_TRUE(wire::getDeltaDouble(in, &ga, &dec));
            ASSERT_TRUE(wire::getDeltaDouble(in, &gb, &dec));
            EXPECT_EQ(std::bit_cast<uint64_t>(a),
                      std::bit_cast<uint64_t>(ga));
            EXPECT_EQ(std::bit_cast<uint64_t>(b),
                      std::bit_cast<uint64_t>(gb));
        }
    }
    EXPECT_TRUE(in.empty());
}

TEST(SnapshotWire, PointResultRoundTripIsBitwise)
{
    std::vector<PointResult> results = realResults(3, 2, 16);
    // Bit patterns the model does not produce but the five lanes must
    // still carry exactly: signed zero, infinities, a NaN with a
    // payload, and a denormal, each in a different field.
    const double nan = std::bit_cast<double>(0x7ff80000deadbeefull);
    const double denormal = std::bit_cast<double>(0x000000000000abcdull);
    results.push_back({-0.0, std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity(), nan,
                       denormal});
    results.push_back({denormal, nan, 0.0, -0.0, 1.0});
    results.push_back(realResults(5, 0, 1).front());

    std::string buf;
    wire::DeltaChain enc;
    for (const PointResult &r : results)
        appendPointResult(buf, r, &enc);

    std::string_view in = buf;
    wire::DeltaChain dec;
    for (size_t i = 0; i < results.size(); ++i) {
        PointResult got;
        ASSERT_TRUE(readPointResult(in, &got, &dec));
        expectBitwiseEqual(results[i], got,
                           "result " + std::to_string(i));
    }
    EXPECT_TRUE(in.empty());
}

// ------------------------------------------------------------- en/decode

TEST(Snapshot, EncodeDecodeRoundTrip)
{
    const Snapshot snap = sampleSnapshot();
    const std::string bytes = encodeSnapshot(snap);
    Snapshot back;
    ASSERT_TRUE(decodeSnapshot(bytes, &back).ok());
    expectSnapshotsEqual(snap, back);
}

TEST(Snapshot, EncodeIsDeterministic)
{
    const Snapshot snap = sampleSnapshot();
    EXPECT_EQ(encodeSnapshot(snap), encodeSnapshot(snap));
}

TEST(Snapshot, IndexIsLazyAndDecodeEntryMatches)
{
    const Snapshot snap = sampleSnapshot();
    const std::string bytes = encodeSnapshot(snap);
    SnapshotIndex index;
    ASSERT_TRUE(indexSnapshot(bytes, &index).ok());
    ASSERT_EQ(snap.devices.size(), index.sections.size());
    for (size_t d = 0; d < index.sections.size(); ++d) {
        const SectionRef &ref = index.sections[d];
        EXPECT_EQ(snap.devices[d].device, ref.device);
        EXPECT_EQ(snap.devices[d].fingerprint, ref.fingerprint);
        ASSERT_EQ(snap.devices[d].entries.size(), ref.entries.size());
        for (size_t e = 0; e < ref.entries.size(); ++e) {
            SnapshotEntry entry;
            ASSERT_TRUE(decodeEntry(ref.entries[e], ref.latticeSize,
                                    &entry)
                            .ok());
            EXPECT_EQ(snap.devices[d].entries[e].slots, entry.slots);
        }
    }
}

TEST(Snapshot, VersionSkewIsFailedPreconditionNotCorruption)
{
    // A file from a future (or past) writer: valid by its own rules,
    // unreadable by ours. The loader must say "version skew" before
    // it says anything else — the daemon logs it and cold-starts.
    // The past writer is HSNP v3, which stored whole KernelResults.
    for (const uint32_t version :
         {kSnapshotFormatVersion - 1, kSnapshotFormatVersion + 1}) {
        std::string bytes(kSnapshotMagic);
        wire::putVarint(bytes, version);
        bytes.append(16, '\0'); // Whatever that header looks like.
        SnapshotIndex index;
        const Status status = indexSnapshot(bytes, &index);
        EXPECT_EQ(StatusCode::FailedPrecondition, status.code())
            << status.message();
    }
}

TEST(Snapshot, HeaderBitFlipsAreRejectedAtIndexTime)
{
    const std::string bytes = encodeSnapshot(sampleSnapshot());
    SnapshotIndex index;
    ASSERT_TRUE(indexSnapshot(bytes, &index).ok());
    // The header spans everything before the first entry body.
    const size_t headerEnd = static_cast<size_t>(
        index.sections.front().entries.front().body.data() -
        bytes.data());
    Rng rng = sweepSubstream(0xdeadbeef, 1);
    for (int trial = 0; trial < 64; ++trial) {
        const size_t byte = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(headerEnd) - 1));
        const int bit = static_cast<int>(rng.uniformInt(0, 7));
        std::string flipped = bytes;
        flipped[byte] = static_cast<char>(
            static_cast<uint8_t>(flipped[byte]) ^ (1u << bit));
        SnapshotIndex idx;
        const Status status = indexSnapshot(flipped, &idx);
        EXPECT_FALSE(status.ok())
            << "flip byte " << byte << " bit " << bit
            << " went undetected";
    }
}

TEST(Snapshot, BlobBitFlipsAreContainedToTheirEntry)
{
    const std::string bytes = encodeSnapshot(sampleSnapshot());
    SnapshotIndex index;
    ASSERT_TRUE(indexSnapshot(bytes, &index).ok());
    Rng rng = sweepSubstream(0xdeadbeef, 2);
    for (int trial = 0; trial < 32; ++trial) {
        // Pick an entry, flip a bit inside its body: that entry must
        // fail to decode, every other entry must decode clean.
        const SectionRef &section =
            index.sections[static_cast<size_t>(rng.uniformInt(
                0,
                static_cast<int64_t>(index.sections.size()) - 1))];
        const size_t victim = static_cast<size_t>(rng.uniformInt(
            0, static_cast<int64_t>(section.entries.size()) - 1));
        const EntryRef &ref = section.entries[victim];
        const size_t offset =
            static_cast<size_t>(ref.body.data() - bytes.data()) +
            static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(ref.body.size()) - 1));
        const int bit = static_cast<int>(rng.uniformInt(0, 7));

        std::string flipped = bytes;
        flipped[offset] = static_cast<char>(
            static_cast<uint8_t>(flipped[offset]) ^ (1u << bit));
        SnapshotIndex idx;
        ASSERT_TRUE(indexSnapshot(flipped, &idx).ok())
            << "blob flip must not invalidate the header";
        for (size_t s = 0; s < idx.sections.size(); ++s) {
            const SectionRef &sec = idx.sections[s];
            for (size_t e = 0; e < sec.entries.size(); ++e) {
                SnapshotEntry entry;
                const bool ok =
                    decodeEntry(sec.entries[e], sec.latticeSize,
                                &entry)
                        .ok();
                const bool isVictim =
                    sec.device == section.device && e == victim;
                EXPECT_EQ(!isVictim, ok)
                    << "device " << sec.device << " entry " << e;
            }
        }
    }
}

TEST(Snapshot, EveryTruncationIsRejected)
{
    const std::string bytes = encodeSnapshot(sampleSnapshot());
    Snapshot full;
    ASSERT_TRUE(decodeSnapshot(bytes, &full).ok());
    Rng rng = sweepSubstream(0xdeadbeef, 3);
    for (int trial = 0; trial < 64; ++trial) {
        const size_t cut = static_cast<size_t>(rng.uniformInt(
            0, static_cast<int64_t>(bytes.size()) - 1));
        Snapshot snap;
        EXPECT_FALSE(
            decodeSnapshot(bytes.substr(0, cut), &snap).ok())
            << "cut at " << cut << " went undetected";
    }
}

TEST(Snapshot, RandomGarbageNeverDecodes)
{
    Rng rng = sweepSubstream(0xdeadbeef, 4);
    for (int trial = 0; trial < 32; ++trial) {
        std::string garbage(
            static_cast<size_t>(rng.uniformInt(0, 512)), '\0');
        for (char &c : garbage)
            c = static_cast<char>(rng.uniformInt(0, 255));
        // Half the trials keep a valid magic so the parser gets past
        // the first gate.
        if (trial % 2 == 0 && garbage.size() >= kSnapshotMagic.size())
            garbage.replace(0, kSnapshotMagic.size(), kSnapshotMagic);
        Snapshot snap;
        EXPECT_FALSE(decodeSnapshot(garbage, &snap).ok());
    }
}

// ------------------------------------------------------------ fingerprint

TEST(Snapshot, FingerprintSeparatesDevicesAndLattices)
{
    const std::vector<HardwareConfig> &lattice =
        fixture().sweep.configs();
    const uint64_t base =
        modelFingerprint(fixture().device, lattice);
    EXPECT_EQ(base, modelFingerprint(fixture().device, lattice))
        << "fingerprint must be a pure function of (device, lattice)";

    // Another registry device: different probes, different print.
    auto other = DeviceRegistry::instance().make("hbm-stacked");
    ASSERT_TRUE(other.ok());
    ConfigSweep otherSweep(other.value(), SweepOptions{});
    EXPECT_NE(base,
              modelFingerprint(other.value(), otherSweep.configs()));

    // A lattice edit (one point dropped) must move the print too:
    // the slot <-> config mapping changed.
    std::vector<HardwareConfig> trimmed = lattice;
    trimmed.pop_back();
    EXPECT_NE(base, modelFingerprint(fixture().device, trimmed));
}

// -------------------------------------------------------------- file I/O

TEST(Snapshot, FileRoundTripAndMissingFile)
{
    const std::string path = tmpPath("roundtrip");
    std::remove(path.c_str());

    const Result<Snapshot> missing = readSnapshotFile(path);
    EXPECT_EQ(StatusCode::NotFound, missing.status().code());

    const Snapshot snap = sampleSnapshot();
    size_t written = 0;
    ASSERT_TRUE(writeSnapshotFile(path, snap, &written).ok());
    EXPECT_GT(written, 0u);

    size_t read = 0;
    const Result<Snapshot> back = readSnapshotFile(path, &read);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(written, read);
    expectSnapshotsEqual(snap, back.value());

    SnapshotBytes mapped;
    ASSERT_TRUE(loadSnapshotBytes(path, &mapped).ok());
    EXPECT_EQ(written, mapped.size());
    SnapshotIndex index;
    EXPECT_TRUE(indexSnapshot(mapped.view(), &index).ok());

    std::remove(path.c_str());
}

TEST(Snapshot, FailedSaveLeavesPreviousFileIntact)
{
    const std::string path = tmpPath("atomic");
    std::remove(path.c_str());
    ASSERT_TRUE(writeSnapshotFile(path, sampleSnapshot()).ok());
    std::string before;
    ASSERT_TRUE(readSnapshotBytes(path, &before).ok());

    // Sabotage the temp file the writer stages into: a directory in
    // its place makes fopen fail, so the save errors out before it
    // can touch the real path.
    const std::string tmp = path + ".tmp";
    ASSERT_EQ(0, mkdir(tmp.c_str(), 0755));
    Snapshot replacement = sampleSnapshot();
    replacement.devices.pop_back();
    EXPECT_FALSE(writeSnapshotFile(path, replacement).ok());

    std::string after;
    ASSERT_TRUE(readSnapshotBytes(path, &after).ok());
    EXPECT_EQ(before, after)
        << "a failed save must not disturb the previous snapshot";

    rmdir(tmp.c_str());
    std::remove(path.c_str());
}

TEST(Snapshot, SaveToUnreachablePathFails)
{
    // The parent "directory" is a regular file: nothing can be
    // created beneath it, even running as root.
    const std::string blocker = tmpPath("blocker");
    std::FILE *f = std::fopen(blocker.c_str(), "wb");
    ASSERT_NE(nullptr, f);
    std::fclose(f);
    EXPECT_FALSE(
        writeSnapshotFile(blocker + "/nested.snap", sampleSnapshot())
            .ok());
    std::remove(blocker.c_str());
}
