#include "trace_store.hh"

#include <cstring>

#include "common/error.hh"

namespace pinte
{

namespace
{

/*
 * Compact record layout. A head byte
 *
 *     bits 0-1 numLoads (3: a raw record follows instead)
 *     bits 2-3 numStores   bit 4 isBranch   bit 5 branchTaken
 *     bit 6    the IP differs from the predicted one
 *
 * then 3 bytes packing dstReg (6 bits), srcReg[0] and srcReg[1]
 * (7 bits each, 64 = noReg) and execLatency (4 bits), then zigzag
 * LEB128 varints: the IP's distance from the prediction (bit 6 only),
 * the branch target's from the IP (branches only), and each load then
 * store address's from the previous memory address. The predicted IP
 * is the last record's taken-branch target, else its IP + 4, so only
 * branch records and code wrap-arounds spell their IP out.
 */

constexpr std::uint8_t rawHead = 3;
constexpr std::uint8_t ipExplicit = 0x40;
constexpr unsigned regAbsent = 64;
constexpr Addr instBytes = 4;
constexpr std::size_t rawBytes = 6 * 8 + 8;

std::uint64_t
zigzag(std::uint64_t delta)
{
    return (delta << 1) ^ (0 - (delta >> 63));
}

std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (0 - (z & 1));
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
getVarint(const std::uint8_t *&p)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
        const std::uint8_t b = *p++;
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
    }
}

void
predictNext(RecordCodecState &st, const TraceRecord &r)
{
    st.nextIp = r.isBranch && r.branchTaken ? r.branchTarget
                                            : r.ip + instBytes;
}

/** True if `r` fits the compact layout. */
bool
compactable(const TraceRecord &r)
{
    const auto reg_ok = [](std::uint8_t reg) {
        return reg < regAbsent || reg == noReg;
    };
    if (r.numLoads > maxMemOps || r.numStores > maxMemOps ||
        r.isBranch > 1 || r.branchTaken > 1 || r.execLatency > 15 ||
        r.dstReg >= regAbsent || !reg_ok(r.srcReg[0]) ||
        !reg_ok(r.srcReg[1]) || (!r.isBranch && r.branchTarget != 0))
        return false;
    for (unsigned i = r.numLoads; i < maxMemOps; ++i)
        if (r.loadAddr[i] != 0)
            return false;
    for (unsigned i = r.numStores; i < maxMemOps; ++i)
        if (r.storeAddr[i] != 0)
            return false;
    return true;
}

void
putRaw(std::vector<std::uint8_t> &out, const TraceRecord &r)
{
    const Addr words[6] = {r.ip,           r.loadAddr[0], r.loadAddr[1],
                           r.storeAddr[0], r.storeAddr[1], r.branchTarget};
    const std::uint8_t small[8] = {r.srcReg[0],  r.srcReg[1], r.dstReg,
                                   r.numLoads,   r.numStores, r.isBranch,
                                   r.branchTaken, r.execLatency};
    std::uint8_t buf[rawBytes];
    std::memcpy(buf, words, sizeof words);
    std::memcpy(buf + sizeof words, small, sizeof small);
    out.push_back(rawHead);
    out.insert(out.end(), buf, buf + rawBytes);
}

TraceRecord
getRaw(const std::uint8_t *&p)
{
    Addr words[6];
    std::uint8_t small[8];
    std::memcpy(words, p, sizeof words);
    std::memcpy(small, p + sizeof words, sizeof small);
    p += rawBytes;
    TraceRecord r;
    r.ip = words[0];
    r.loadAddr[0] = words[1];
    r.loadAddr[1] = words[2];
    r.storeAddr[0] = words[3];
    r.storeAddr[1] = words[4];
    r.branchTarget = words[5];
    r.srcReg[0] = small[0];
    r.srcReg[1] = small[1];
    r.dstReg = small[2];
    r.numLoads = small[3];
    r.numStores = small[4];
    r.isBranch = small[5];
    r.branchTaken = small[6];
    r.execLatency = small[7];
    return r;
}

inline TraceRecord
decode(const std::uint8_t *&p, RecordCodecState &st)
{
    const std::uint8_t head = *p++;
    if ((head & 3) == rawHead) [[unlikely]] {
        const TraceRecord r = getRaw(p);
        predictNext(st, r);
        return r;
    }
    const std::uint32_t regs = p[0] | std::uint32_t{p[1]} << 8 |
                               std::uint32_t{p[2]} << 16;
    p += 3;
    const auto reg = [](std::uint32_t f) {
        return f == regAbsent ? noReg : static_cast<std::uint8_t>(f);
    };
    TraceRecord r;
    r.dstReg = static_cast<std::uint8_t>(regs & 63);
    r.srcReg[0] = reg((regs >> 6) & 127);
    r.srcReg[1] = reg((regs >> 13) & 127);
    r.execLatency = static_cast<std::uint8_t>(regs >> 20);
    r.numLoads = head & 3;
    r.numStores = (head >> 2) & 3;
    r.isBranch = (head >> 4) & 1;
    r.branchTaken = (head >> 5) & 1;
    r.ip = st.nextIp;
    if (head & ipExplicit)
        r.ip += unzigzag(getVarint(p));
    if (r.isBranch)
        r.branchTarget = r.ip + unzigzag(getVarint(p));
    for (unsigned i = 0; i < r.numLoads; ++i)
        r.loadAddr[i] = st.lastAddr += unzigzag(getVarint(p));
    for (unsigned i = 0; i < r.numStores; ++i)
        r.storeAddr[i] = st.lastAddr += unzigzag(getVarint(p));
    predictNext(st, r);
    return r;
}

} // namespace

void
encodeRecord(std::vector<std::uint8_t> &out, RecordCodecState &st,
             const TraceRecord &r)
{
    if (!compactable(r)) {
        putRaw(out, r);
        predictNext(st, r);
        return;
    }
    const auto reg = [](std::uint8_t v) {
        return v == noReg ? regAbsent : std::uint32_t{v};
    };
    const std::uint32_t regs = r.dstReg | reg(r.srcReg[0]) << 6 |
                               reg(r.srcReg[1]) << 13 |
                               std::uint32_t{r.execLatency} << 20;
    const bool ip_explicit = r.ip != st.nextIp;
    out.push_back(static_cast<std::uint8_t>(
        r.numLoads | r.numStores << 2 | r.isBranch << 4 |
        r.branchTaken << 5 | (ip_explicit ? ipExplicit : 0)));
    out.push_back(static_cast<std::uint8_t>(regs));
    out.push_back(static_cast<std::uint8_t>(regs >> 8));
    out.push_back(static_cast<std::uint8_t>(regs >> 16));
    if (ip_explicit)
        putVarint(out, zigzag(r.ip - st.nextIp));
    if (r.isBranch)
        putVarint(out, zigzag(r.branchTarget - r.ip));
    const auto put_addr = [&](Addr a) {
        putVarint(out, zigzag(a - st.lastAddr));
        st.lastAddr = a;
    };
    for (unsigned i = 0; i < r.numLoads; ++i)
        put_addr(r.loadAddr[i]);
    for (unsigned i = 0; i < r.numStores; ++i)
        put_addr(r.storeAddr[i]);
    predictNext(st, r);
}

TraceRecord
decodeRecord(const std::uint8_t *&p, RecordCodecState &st)
{
    return decode(p, st);
}

TraceStore::TraceStore(WorkloadSpec spec) : spec_(std::move(spec))
{
}

std::size_t
TraceStore::chunks() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return chunks_.size();
}

std::size_t
TraceStore::bytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

TraceGenerator &
TraceStore::frontier()
{
    if (!gen_)
        gen_ = std::make_unique<TraceGenerator>(spec_);
    return *gen_;
}

const TraceStore::Chunk *
TraceStore::chunk(std::size_t i)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (i < chunks_.size())
            return chunks_[i].get();
    }
    std::lock_guard<std::mutex> extend(extendMu_);
    {
        // Another cursor may have extended the store meanwhile.
        std::lock_guard<std::mutex> lock(mu_);
        if (i < chunks_.size())
            return chunks_[i].get();
        if (bytes_ >= byteBudget)
            return nullptr;
    }
    TraceGenerator &gen = frontier();
    auto c = std::make_unique<Chunk>();
    SnapshotWriter w;
    gen.saveState(w);
    c->start = w.bytes();
    c->records.reserve(chunkRecords * 8);
    RecordCodecState st;
    for (std::size_t k = 0; k < chunkRecords; ++k)
        encodeRecord(c->records, st, gen.next());
    c->records.shrink_to_fit();

    std::lock_guard<std::mutex> lock(mu_);
    bytes_ += c->records.size() + c->start.size();
    chunks_.push_back(std::move(c));
    return chunks_.back().get();
}

std::unique_ptr<TraceGenerator>
TraceStore::liveAt(std::uint64_t pos)
{
    const std::uint64_t c = pos / chunkRecords;
    std::unique_ptr<TraceGenerator> g;
    {
        std::lock_guard<std::mutex> extend(extendMu_);
        // A copy keeps the chase cycle and branch sites; every field
        // that moves is then overwritten from the chunk's start state,
        // or already right when `pos` is the frontier itself.
        g = std::make_unique<TraceGenerator>(frontier());
        std::lock_guard<std::mutex> lock(mu_);
        if (c < chunks_.size()) {
            SnapshotReader r(chunks_[c]->start);
            g->loadState(r);
        } else if (c > chunks_.size() || pos % chunkRecords != 0) {
            throw SimError("trace replay position past the store",
                           {"trace_store", "", std::to_string(pos)});
        }
    }
    for (std::uint64_t k = pos % chunkRecords; k > 0; --k)
        g->next();
    return g;
}

TraceReplay::TraceReplay(std::shared_ptr<TraceStore> store)
    : store_(std::move(store))
{
}

TraceRecord
TraceReplay::next()
{
    if (left_ == 0) [[unlikely]]
        return nextFromNewChunk();
    --left_;
    return decode(p_, codec_);
}

TraceRecord
TraceReplay::nextFromNewChunk()
{
    if (!live_) {
        if (const TraceStore::Chunk *c = store_->chunk(nextChunk_)) {
            p_ = c->records.data();
            left_ = TraceStore::chunkRecords - 1;
            ++nextChunk_;
            codec_ = {};
            return decode(p_, codec_);
        }
        live_ = store_->liveAt(position());
    }
    return live_->next();
}

void
TraceReplay::reset()
{
    live_.reset();
    p_ = nullptr;
    left_ = 0;
    nextChunk_ = 0;
}

void
TraceReplay::skip(std::uint64_t n)
{
    // TraceGenerator::skip moves the phase clock without drawing, so
    // the stream after a skip is not a suffix of the stored one.
    if (!live_) {
        live_ = store_->liveAt(position());
        left_ = 0;
    }
    live_->skip(n);
}

void
TraceReplay::saveState(SnapshotWriter &w) const
{
    if (live_)
        live_->saveState(w);
    else
        store_->liveAt(position())->saveState(w);
}

void
TraceReplay::loadState(SnapshotReader &r)
{
    // Any live generator will do: loadState overwrites its position.
    std::unique_ptr<TraceGenerator> g = store_->liveAt(0);
    g->loadState(r);
    live_ = std::move(g);
    left_ = 0;
}

} // namespace pinte
