#include "format/format.hpp"

#include "mapping/mapping.hpp"
#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace teaal::fmt
{

int
RankFormat::coordBits() const
{
    if (cbits)
        return *cbits;
    switch (type) {
      case Type::U:
        return 0; // implicit coordinates
      case Type::C:
        return 32;
      case Type::B:
        return 1; // presence bitmap
    }
    return 32;
}

int
RankFormat::payloadBits(bool is_leaf) const
{
    if (pbits)
        return *pbits;
    return is_leaf ? 64 : 32;
}

int
RankFormat::headerBits() const
{
    return fhbits.value_or(0);
}

const RankFormat&
TensorFormat::rankFormat(const std::string& rank_id) const
{
    auto it = ranks.find(rank_id);
    if (it != ranks.end())
        return it->second;
    // Partitioned ranks (K1, KM0, ...) inherit the base rank format.
    it = ranks.find(mapping::baseOfDerived(rank_id));
    if (it != ranks.end())
        return it->second;
    static const RankFormat default_fmt{};
    return default_fmt;
}

FormatSpec
FormatSpec::parse(const yaml::Node& node)
{
    FormatSpec spec;
    if (node.isNull())
        return spec;
    for (const auto& [tensor, configs] : node.mapping()) {
        for (const auto& [config_name, body] : configs.mapping()) {
            TensorFormat tf;
            tf.config = config_name;
            for (const auto& [key, value] : body.mapping()) {
                if (key == "rank-order") {
                    tf.rankOrder = value.scalarList();
                    continue;
                }
                RankFormat rf;
                for (const auto& [attr, av] : value.mapping()) {
                    if (attr == "format") {
                        const std::string f = av.scalar();
                        if (f == "U")
                            rf.type = RankFormat::Type::U;
                        else if (f == "C")
                            rf.type = RankFormat::Type::C;
                        else if (f == "B")
                            rf.type = RankFormat::Type::B;
                        else
                            specError("tensor ", tensor, " rank ", key,
                                      ": unknown format '", f, "'");
                    } else if (attr == "layout") {
                        const std::string l = av.scalar();
                        if (l == "contiguous")
                            rf.layout = RankFormat::Layout::Contiguous;
                        else if (l == "interleaved")
                            rf.layout = RankFormat::Layout::Interleaved;
                        else
                            specError("tensor ", tensor, " rank ", key,
                                      ": unknown layout '", l, "'");
                    } else if (attr == "cbits") {
                        rf.cbits = static_cast<int>(av.asLong());
                    } else if (attr == "pbits") {
                        rf.pbits = static_cast<int>(av.asLong());
                    } else if (attr == "fhbits") {
                        rf.fhbits = static_cast<int>(av.asLong());
                    } else {
                        specError("tensor ", tensor, " rank ", key,
                                  ": unknown format attribute '", attr,
                                  "'");
                    }
                }
                tf.ranks[key] = rf;
            }
            spec.add(tensor, std::move(tf));
        }
    }
    return spec;
}

bool
FormatSpec::hasTensor(const std::string& tensor) const
{
    return tensors_.count(tensor) > 0;
}

bool
FormatSpec::hasConfig(const std::string& tensor,
                      const std::string& config) const
{
    const auto it = tensors_.find(tensor);
    return it != tensors_.end() && it->second.count(config) > 0;
}

const TensorFormat&
FormatSpec::get(const std::string& tensor, const std::string& config) const
{
    const auto it = tensors_.find(tensor);
    if (it == tensors_.end()) {
        // Default: every rank compressed with default widths.
        auto [dit, inserted] = defaults_.try_emplace(tensor);
        if (inserted)
            dit->second.config = "default";
        return dit->second;
    }
    const auto& configs = it->second;
    if (config.empty()) {
        if (configs.size() != 1)
            specError("tensor ", tensor, " has ", configs.size(),
                      " format configs; binding must name one");
        return configs.begin()->second;
    }
    const auto cit = configs.find(config);
    if (cit == configs.end())
        specError("tensor ", tensor, ": unknown format config '", config,
                  "'");
    return cit->second;
}

const TensorFormat&
FormatSpec::getLenient(const std::string& tensor) const
{
    const auto it = tensors_.find(tensor);
    if (it == tensors_.end() || it->second.empty())
        return get(tensor);
    return it->second.begin()->second;
}

void
FormatSpec::add(const std::string& tensor, TensorFormat format)
{
    tensors_[tensor][format.config] = std::move(format);
}

std::uint64_t
fiberBits(const RankFormat& fmt, std::size_t occupancy, ft::Coord shape,
          bool is_leaf, ft::Coord span)
{
    const std::uint64_t pbits =
        static_cast<std::uint64_t>(fmt.payloadBits(is_leaf));
    const std::uint64_t cbits =
        static_cast<std::uint64_t>(fmt.coordBits());
    const std::uint64_t extent = static_cast<std::uint64_t>(
        span < 0 ? shape : std::min(shape, span));
    std::uint64_t bits = static_cast<std::uint64_t>(fmt.headerBits());
    switch (fmt.type) {
      case RankFormat::Type::U:
        // Payload array sized by the stored coordinate range;
        // coordinates implicit.
        bits += pbits * extent;
        bits += cbits * extent;
        break;
      case RankFormat::Type::C:
        bits += (cbits + pbits) * static_cast<std::uint64_t>(occupancy);
        break;
      case RankFormat::Type::B:
        // Uncompressed coordinate structure, compressed payloads.
        bits += cbits * extent;
        bits += pbits * static_cast<std::uint64_t>(occupancy);
        break;
    }
    return bits;
}

namespace
{

std::uint64_t
fiberSubtreeBits(const TensorFormat& format,
                 const std::vector<std::string>& rank_ids,
                 const ft::Fiber& fiber, std::size_t level)
{
    TEAAL_ASSERT(level < rank_ids.size(), "format level out of range");
    const RankFormat& rf = format.rankFormat(rank_ids[level]);
    const bool is_leaf = level + 1 == rank_ids.size();
    const ft::Coord span =
        fiber.empty() ? 0
                      : fiber.coordAt(fiber.size() - 1) -
                            fiber.coordAt(0) + 1;
    std::uint64_t bits =
        fiberBits(rf, fiber.size(), fiber.shape(), is_leaf, span);
    if (!is_leaf) {
        for (std::size_t pos = 0; pos < fiber.size(); ++pos) {
            const ft::Payload& p = fiber.payloadAt(pos);
            if (p.isFiber() && p.fiber() != nullptr) {
                bits += fiberSubtreeBits(format, rank_ids, *p.fiber(),
                                         level + 1);
            }
        }
    }
    return bits;
}

} // namespace

std::uint64_t
tensorBits(const TensorFormat& format, const ft::Tensor& t)
{
    if (t.root() == nullptr)
        return 0;
    return fiberSubtreeBits(format, t.rankIds(), *t.root(), 0);
}

std::uint64_t
subtreeBits(const TensorFormat& format,
            const std::vector<std::string>& rank_ids,
            const ft::Payload& payload, std::size_t level)
{
    if (payload.isValue()) {
        TEAAL_ASSERT(level >= 1, "leaf payload at root level");
        const RankFormat& rf = format.rankFormat(rank_ids[level - 1]);
        return static_cast<std::uint64_t>(rf.payloadBits(true));
    }
    if (payload.fiber() == nullptr)
        return 0;
    return fiberSubtreeBits(format, rank_ids, *payload.fiber(), level);
}

} // namespace teaal::fmt
