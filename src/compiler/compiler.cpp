#include "compiler/compiler.hpp"

#include "util/diagnostic.hpp"
#include "util/error.hpp"
#include "yaml/yaml.hpp"

namespace teaal::compiler
{

Specification
Specification::parse(const std::string& yaml_text,
                     const mapping::ParamMap& params)
{
    yaml::Node doc;
    try {
        doc = yaml::parse(yaml_text);
    } catch (const SpecError& e) {
        rethrowAsDiagnostic("document", "", e);
    }
    if (!doc.isMapping() || doc.find("einsum") == nullptr) {
        diagError("einsum", "einsum",
                  "missing required section 'einsum'");
    }

    Specification spec;
    try {
        spec.einsums = einsum::EinsumSpec::parse(doc.at("einsum"));
    } catch (const SpecError& e) {
        rethrowAsDiagnostic("einsum", "", e);
    }
    try {
        if (const yaml::Node* m = doc.find("mapping"))
            spec.mapping = mapping::MappingSpec::parse(*m, params);
    } catch (const SpecError& e) {
        rethrowAsDiagnostic("mapping", "", e);
    }
    try {
        if (const yaml::Node* f = doc.find("format"))
            spec.formats = fmt::FormatSpec::parse(*f);
    } catch (const SpecError& e) {
        rethrowAsDiagnostic("format", "", e);
    }
    try {
        if (const yaml::Node* a = doc.find("architecture"))
            spec.architecture = arch::ArchSpec::parse(*a);
    } catch (const SpecError& e) {
        rethrowAsDiagnostic("architecture", "", e);
    }
    try {
        if (const yaml::Node* b = doc.find("binding"))
            spec.bindings = binding::BindingSpec::parse(*b);
    } catch (const SpecError& e) {
        rethrowAsDiagnostic("binding", "", e);
    }
    return spec;
}

const ft::Tensor&
SimulationResult::result(const Specification& spec) const
{
    const auto it = tensors.find(spec.einsums.resultTensor());
    TEAAL_ASSERT(it != tensors.end(), "result tensor missing");
    return it->second;
}

double
SimulationResult::totalTrafficBytes() const
{
    double total = 0;
    for (const auto& [tensor, tt] : traffic)
        total += tt.total();
    return total;
}

} // namespace teaal::compiler
