#include "mapping/mapping.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace teaal::mapping
{

const EinsumMapping MappingSpec::defaultMapping_{};
const std::vector<std::string> MappingSpec::emptyOrder_{};

std::string
PartitionDirective::toString() const
{
    std::ostringstream oss;
    switch (kind) {
      case Kind::Flatten:
        oss << "flatten()";
        break;
      case Kind::UniformShape:
        oss << "uniform_shape(" << tile << ")";
        break;
      case Kind::UniformOccupancy:
        oss << "uniform_occupancy(" << leader << "." << chunk << ")";
        break;
    }
    return oss.str();
}

PartitionDirective
PartitionDirective::parse(const std::string& text, const ParamMap& params)
{
    PartitionDirective d;
    const std::string t = trim(text);
    const std::size_t open = t.find('(');
    if (open == std::string::npos || t.back() != ')')
        specError("bad partitioning directive '", text, "'");
    const std::string head = trim(t.substr(0, open));
    const std::string arg = trim(t.substr(open + 1, t.size() - open - 2));

    if (head == "flatten") {
        if (!arg.empty())
            specError("flatten() takes no arguments, got '", text, "'");
        d.kind = Kind::Flatten;
        return d;
    }
    if (head == "uniform_shape") {
        d.kind = Kind::UniformShape;
        if (isInteger(arg)) {
            d.tile = parseLong(arg, text);
        } else {
            const auto it = params.find(arg);
            if (it == params.end())
                specError("uniform_shape: unresolved parameter '", arg,
                          "' in '", text, "'");
            d.tile = it->second;
        }
        if (d.tile <= 0)
            specError("uniform_shape tile must be positive in '", text,
                      "'");
        return d;
    }
    if (head == "uniform_occupancy") {
        d.kind = Kind::UniformOccupancy;
        const std::size_t dot = arg.find('.');
        if (dot == std::string::npos)
            specError("uniform_occupancy expects 'leader.N', got '", text,
                      "'");
        d.leader = trim(arg.substr(0, dot));
        const std::string size_text = trim(arg.substr(dot + 1));
        long chunk;
        if (isInteger(size_text)) {
            chunk = parseLong(size_text, text);
        } else {
            const auto it = params.find(size_text);
            if (it == params.end())
                specError("uniform_occupancy: unresolved parameter '",
                          size_text, "' in '", text, "'");
            chunk = it->second;
        }
        if (chunk <= 0)
            specError("uniform_occupancy size must be positive in '",
                      text, "'");
        d.chunk = static_cast<std::size_t>(chunk);
        return d;
    }
    specError("unknown partitioning directive '", text, "'");
}

bool
RankPartitioning::flattenOnly() const
{
    return directives.size() == 1 &&
           directives[0].kind == PartitionDirective::Kind::Flatten;
}

std::string
RankPartitioning::baseRank() const
{
    if (sourceRanks.size() == 1)
        return sourceRanks[0];
    std::string out;
    for (const std::string& r : sourceRanks)
        out += r;
    return out;
}

std::vector<std::string>
RankPartitioning::resultRanks() const
{
    const std::string base = baseRank();
    std::size_t splits = 0;
    for (const PartitionDirective& d : directives) {
        if (d.kind != PartitionDirective::Kind::Flatten)
            ++splits;
    }
    if (splits == 0)
        return {base};
    std::vector<std::string> out;
    for (std::size_t i = 0; i <= splits; ++i)
        out.push_back(base + std::to_string(splits - i));
    return out;
}

std::string
baseOfDerived(const std::string& rank)
{
    std::string base = rank;
    while (!base.empty() &&
           std::isdigit(static_cast<unsigned char>(base.back()))) {
        base.pop_back();
    }
    return base;
}

SpaceTimeEntry
SpaceTimeEntry::parse(const std::string& text)
{
    SpaceTimeEntry e;
    const std::string t = trim(text);
    if (endsWith(t, ".coord")) {
        e.rank = t.substr(0, t.size() - 6);
        e.coordSpace = true;
    } else if (endsWith(t, ".pos")) {
        e.rank = t.substr(0, t.size() - 4);
    } else {
        e.rank = t;
    }
    if (e.rank.empty())
        specError("empty spacetime entry '", text, "'");
    return e;
}

const RankPartitioning*
EinsumMapping::groupFor(const std::string& rank) const
{
    for (const RankPartitioning& g : partitioning) {
        if (std::find(g.sourceRanks.begin(), g.sourceRanks.end(), rank) !=
            g.sourceRanks.end())
            return &g;
        if (g.baseRank() == rank)
            return &g;
    }
    return nullptr;
}

MappingSpec
MappingSpec::parse(const yaml::Node& node, const ParamMap& params)
{
    MappingSpec spec;
    if (node.isNull())
        return spec;

    if (const yaml::Node* ro = node.find("rank-order")) {
        for (const auto& [tensor, order] : ro->mapping())
            spec.rankOrder_[tensor] = order.scalarList();
    }

    auto& einsums = spec.einsums_;
    if (const yaml::Node* part = node.find("partitioning")) {
        for (const auto& [einsum_name, groups] : part->mapping()) {
            EinsumMapping& em = einsums[einsum_name];
            for (const auto& [key, dirs] : groups.mapping()) {
                RankPartitioning rp;
                // Key is a rank name or a tuple "(K, M)".
                std::string k = trim(key);
                if (!k.empty() && k.front() == '(') {
                    if (k.back() != ')')
                        specError("bad partitioning key '", key, "'");
                    for (const std::string& r :
                         splitTopLevel(k.substr(1, k.size() - 2), ','))
                        rp.sourceRanks.push_back(r);
                } else {
                    rp.sourceRanks.push_back(k);
                }
                for (const std::string& d : dirs.scalarList())
                    rp.directives.push_back(
                        PartitionDirective::parse(d, params));
                if (rp.directives.empty())
                    specError("partitioning of '", key,
                              "' has no directives");
                // flatten() may only appear first and only for tuples;
                // tuple keys must start with flatten().
                for (std::size_t i = 0; i < rp.directives.size(); ++i) {
                    const bool is_flatten =
                        rp.directives[i].kind ==
                        PartitionDirective::Kind::Flatten;
                    if (is_flatten && i != 0)
                        specError("flatten() must be the first directive",
                                  " for '", key, "'");
                }
                if (rp.sourceRanks.size() > 1 &&
                    rp.directives[0].kind !=
                        PartitionDirective::Kind::Flatten)
                    specError("tuple partitioning key '", key,
                              "' requires flatten() first");
                em.partitioning.push_back(std::move(rp));
            }
        }
    }

    if (const yaml::Node* lo = node.find("loop-order")) {
        for (const auto& [einsum_name, order] : lo->mapping())
            einsums[einsum_name].loopOrder = order.scalarList();
    }

    if (const yaml::Node* st = node.find("spacetime")) {
        for (const auto& [einsum_name, body] : st->mapping()) {
            EinsumMapping& em = einsums[einsum_name];
            if (const yaml::Node* sp = body.find("space")) {
                for (const std::string& e : sp->scalarList())
                    em.space.push_back(SpaceTimeEntry::parse(e));
            }
            if (const yaml::Node* tm = body.find("time")) {
                for (const std::string& e : tm->scalarList())
                    em.time.push_back(SpaceTimeEntry::parse(e));
            }
        }
    }

    // Validate: spacetime ranks must partition the loop order.
    for (const auto& [name, em] : einsums) {
        if (em.loopOrder.empty() || (em.space.empty() && em.time.empty()))
            continue;
        std::vector<std::string> st_ranks;
        for (const auto& e : em.space)
            st_ranks.push_back(e.rank);
        for (const auto& e : em.time)
            st_ranks.push_back(e.rank);
        std::vector<std::string> lo = em.loopOrder;
        std::sort(st_ranks.begin(), st_ranks.end());
        std::sort(lo.begin(), lo.end());
        if (st_ranks != lo)
            specError("einsum '", name, "': spacetime ranks {",
                      join(st_ranks, ", "),
                      "} do not cover the loop order {", join(lo, ", "),
                      "}");
    }
    return spec;
}

const std::vector<std::string>&
MappingSpec::rankOrder(const std::string& tensor) const
{
    const auto it = rankOrder_.find(tensor);
    return it == rankOrder_.end() ? emptyOrder_ : it->second;
}

bool
MappingSpec::hasRankOrder(const std::string& tensor) const
{
    return rankOrder_.count(tensor) > 0;
}

const EinsumMapping&
MappingSpec::einsum(const std::string& output) const
{
    const auto it = einsums_.find(output);
    return it == einsums_.end() ? defaultMapping_ : it->second;
}

bool
MappingSpec::hasEinsum(const std::string& output) const
{
    return einsums_.count(output) > 0;
}

void
MappingSpec::setRankOrder(const std::string& tensor,
                          std::vector<std::string> order)
{
    rankOrder_[tensor] = std::move(order);
}

void
MappingSpec::setEinsum(const std::string& output, EinsumMapping m)
{
    einsums_[output] = std::move(m);
}

} // namespace teaal::mapping
