open Pfi_stack

type t = {
  protocol : string;
  msg_type : Message.t -> string;
  describe : Message.t -> string;
  get_field : Message.t -> string -> string option;
  set_field : Message.t -> string -> string -> bool;
  generate : (string * string) list -> Message.t option;
  fields : Message.t -> (string * string) list;
}

let raw =
  { protocol = "raw";
    msg_type = (fun _ -> "RAW");
    describe = (fun msg -> Printf.sprintf "raw[%dB] %s" (Message.length msg) (Message.hex msg));
    get_field = (fun _ _ -> None);
    set_field = (fun _ _ _ -> false);
    generate =
      (fun args ->
        match List.assoc_opt "data" args with
        | Some data -> Some (Message.of_string data)
        | None -> None);
    fields = (fun msg -> [ ("len", string_of_int (Message.length msg)) ]) }

let u16_max = 0xffff
let u32_max = 0xffffffff

let fits ~max v = v >= 0 && v <= max

let int_arg args key ~max =
  match Option.bind (List.assoc_opt key args) int_of_string_opt with
  | None -> Some 0
  | Some v -> if fits ~max v then Some v else None

let registry : (string, t) Hashtbl.t = Hashtbl.create 8

let register stub = Hashtbl.replace registry stub.protocol stub

let find protocol = Hashtbl.find_opt registry protocol

let find_exn protocol =
  match find protocol with
  | Some stub -> stub
  | None -> failwith (Printf.sprintf "no packet stub registered for protocol %S" protocol)

let registered () =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])

let () = register raw
